"""Maps of the parameters that leave the spectrum, and so the threshold
jp*, unchanged, checked through the whole pipeline: sector_basis,
build_hamiltonian and eigendecompose.

- The common imaginary gauge jl_s -> jl_s * g, jr_s -> jr_s / g on both legs
  is the similarity g^(sum_x x n_x); rung hops keep x, so it commutes.
- The leg swap A <-> B with mu -> -mu relabels the sites.
- jp -> -jp is the similarity (-1)^N_B.
- Negating every hop along the legs is the similarity (-1)^(sum_x x n_x).
- jl <-> jr on both legs transposes H.

The gauge on leg A alone is no similarity once jp != 0, and is the control.
Observables follow the maps too: under the leg swap site densities
exchange legs and polarization changes sign, under jl <-> jr each leg's
densities are mirrored, and the sign maps keep them; ncor stays under all
of these. The select_clusters groups keep their sizes under every map.
"""

import functools

import numpy as np
import pytest

from nhladder.eig import eigendecompose
from nhladder.model import ModelParams, build_hamiltonian, sector_basis
from nhladder.observables import (SELECTORS, correlation_ncor_all,
                                  polarization_all, select_clusters,
                                  site_density_all)
from nhladder.sweep import find_threshold_jp

# (statistics, cells, particles)
SECTORS = [("boson", 4, 2), ("boson", 3, 3), ("fermion", 4, 3),
           ("fermion", 5, 2)]
DRAWS = 3
# the maps agree within 1.2e-13 over these draws, the leg-swapped
# observables within 4.2e-12 and those of the sign maps within 2.8e-13
TOL = 1e-11
# jl <-> jr solves H^T on its own, and the eigenvectors of these
# non-normal matrices are ill-conditioned: its observables agree within
# 3.3e-11
TRANSPOSE_TOL = 1e-10
# eigenstates are matched by eigenvalue only where no other eigenvalue lies
# this close; every eigenvalue of these draws is at least 4e-3 from the rest
ISOLATED = 1e-6


def _gauge(p, g):
    return p.with_updates(jl_a=p.jl_a * g, jr_a=p.jr_a / g,
                          jl_b=p.jl_b * g, jr_b=p.jr_b / g)


def _leg_swap(p, g):
    return p.with_updates(jl_a=p.jl_b, jr_a=p.jr_b, jl_b=p.jl_a, jr_b=p.jr_a,
                          mu=-p.mu)


MAPS = {
    "common gauge": _gauge,
    "leg swap": _leg_swap,
    "rung sign": lambda p, g: p.with_updates(jp=-p.jp),
    "hop sign": lambda p, g: p.with_updates(jl_a=-p.jl_a, jr_a=-p.jr_a,
                                            jl_b=-p.jl_b, jr_b=-p.jr_b),
    "left-right": lambda p, g: p.with_updates(jl_a=p.jr_a, jr_a=p.jl_a,
                                              jl_b=p.jr_b, jr_b=p.jl_b),
}


def _draws(statistics, cells, particles):
    """Seeded (params, g) draws: amplitudes, jp and mu in [0.3, 1.2], the
    pair energy 3, and a gauge factor g in [1.5, 2.5]."""
    rng = np.random.default_rng([cells, particles, statistics == "fermion"])
    pair = {"u": 3.0} if statistics == "boson" else {"u_nn": 3.0}
    for _ in range(DRAWS):
        jl_a, jr_a, jl_b, jr_b, jp, mu = rng.uniform(0.3, 1.2, size=6)
        yield (ModelParams(cells=cells, particles=particles,
                           statistics=statistics, jl_a=jl_a, jr_a=jr_a,
                           jl_b=jl_b, jr_b=jr_b, jp=jp, mu=mu, **pair),
               rng.uniform(1.5, 2.5))


@functools.lru_cache(maxsize=None)
def _solve(params):
    basis = sector_basis(params)
    return basis, eigendecompose(build_hamiltonian(params, basis))


def _spectrum(params):
    return _solve(params)[1].eigenvalues


def _matched_gap(a, b):
    """Largest gap of a greedy nearest matching of two spectra, smallest
    gaps first: every eigenvalue of a lies within it of its own partner."""
    assert a.shape == b.shape
    gaps = np.abs(a[:, np.newaxis] - b[np.newaxis, :])
    worst = 0.0
    for _ in range(len(a)):
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        worst = max(worst, gaps[i, j])
        gaps[i, :] = np.inf
        gaps[:, j] = np.inf
    return worst


def _sector_id(sector):
    statistics, cells, particles = sector
    return f"{statistics} L={cells} N={particles}"


@pytest.mark.parametrize("name", list(MAPS))
@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_map_leaves_the_spectrum_unchanged(sector, name):
    for params, g in _draws(*sector):
        mapped = MAPS[name](params, g)
        assert mapped != params
        assert _matched_gap(_spectrum(params), _spectrum(mapped)) <= TOL


@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_gauge_on_one_leg_moves_the_spectrum(sector):
    for params, g in _draws(*sector):
        moved = _spectrum(params.with_updates(jl_a=params.jl_a * g,
                                              jr_a=params.jr_a / g))
        spectrum = _spectrum(params)
        # the Hausdorff distance, a lower bound on the largest gap of any
        # matching, is at least 0.017 over these draws
        gaps = np.abs(spectrum[:, np.newaxis] - moved[np.newaxis, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) > 1e-3


def _observables(params):
    """The eigenvalues of params, and the site densities, polarization and,
    for two particles, ncor (else None) of each eigenvector."""
    basis, result = _solve(params)
    vectors = result.eigenvectors
    ncor = (correlation_ncor_all(vectors, basis) if params.particles == 2
            else None)
    return (result.eigenvalues, site_density_all(vectors, basis),
            polarization_all(vectors, basis), ncor)


def _check_observables(sector, name, sites, sign, tol):
    """Match each isolated eigenstate of every draw to its partner under
    the map by eigenvalue: its site densities must be sites(densities,
    cells), its polarization sign times the polarization and its ncor the
    same, all within tol."""
    for params, g in _draws(*sector):
        values, dens, pol, ncor = _observables(params)
        mapped, dens_m, pol_m, ncor_m = _observables(MAPS[name](params, g))
        gaps = np.abs(values[:, np.newaxis] - values[np.newaxis, :])
        np.fill_diagonal(gaps, np.inf)
        isolated = np.flatnonzero(gaps.min(axis=1) > ISOLATED)
        assert isolated.size
        for i in isolated:
            j = np.argmin(np.abs(mapped - values[i]))
            assert abs(mapped[j] - values[i]) <= TOL
            expected = sites(dens[i], params.cells)
            assert np.max(np.abs(dens_m[j] - expected)) <= tol
            assert abs(pol_m[j] - sign * pol[i]) <= tol
            if ncor is not None:
                assert abs(ncor_m[j] - ncor[i]) <= tol


@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_leg_swap_maps_the_observables(sector):
    _check_observables(
        sector, "leg swap",
        lambda dens, cells: np.concatenate([dens[cells:], dens[:cells]]),
        -1.0, TOL)


@pytest.mark.parametrize("name", ["rung sign", "hop sign"])
@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_sign_maps_keep_the_observables(sector, name):
    # both are diagonal similarities of +-1: every |amplitude| stays
    _check_observables(sector, name, lambda dens, cells: dens, 1.0, TOL)


@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_left_right_mirrors_the_observables(sector):
    # H' = H^T = R H R^T for the mirror R: x -> L - 1 - x on each leg
    _check_observables(
        sector, "left-right",
        lambda dens, cells: np.concatenate([dens[cells - 1::-1],
                                            dens[:cells - 1:-1]]),
        1.0, TRANSPOSE_TOL)


@pytest.mark.parametrize("name", list(MAPS))
@pytest.mark.parametrize("sector", SECTORS, ids=_sector_id)
def test_map_keeps_the_cluster_groups(sector, name):
    # each side clusters with its own default min_gap, as every command does
    def sizes(params):
        groups = select_clusters(_solve(params)[1], params)
        return [[c.size for c in groups[selector]] for selector in SELECTORS]

    for params, g in _draws(*sector):
        assert sizes(MAPS[name](params, g)) == sizes(params)


def test_threshold_is_invariant():
    # the rung sign is no test here: the search sets jp itself
    params = ModelParams(cells=4, particles=1, mu=0.2)
    found = [find_threshold_jp(p, bracket=(0.0, 1.0), resolution=5e-3)
             for p in (params, _gauge(params, 2.0), _leg_swap(params, 2.0),
                       MAPS["hop sign"](params, 2.0),
                       MAPS["left-right"](params, 2.0))]
    assert len({(t.jp_star, t.evaluations) for t in found}) == 1
    assert found[0].bracket[1] - found[0].bracket[0] <= 5e-3


@pytest.mark.parametrize("name, legs, gap_factor", [
    ("common gauge", {}, 1.0),
    ("leg swap", {"jl_b": 0.25, "jr_b": 0.5}, 0.5)],
    ids=["common gauge", "leg swap"])
def test_map_keeps_the_groups_at_the_default_min_gap(name, legs, gap_factor):
    # each case has a gap that a default read off leg A's hops alone,
    # 0.1 max(|jl_a|, |jr_a|), would move across: the gauge doubles that
    # from 0.1 to 0.2 (gap_factor 1), and on a leg B of half the hops the
    # leg swap halves it to 0.05 (gap_factor 0.5)
    params = ModelParams(cells=4, particles=2, u=3.0, jp=0.3, mu=0.2, **legs)
    mapped = MAPS[name](params, 2.0)
    assert _matched_gap(_spectrum(params), _spectrum(mapped)) <= TOL
    counts = [len(select_clusters(_solve(p)[1], p,
                                  gap_factor=gap_factor)["all"])
              for p in (params, mapped)]
    assert counts[1] == counts[0]
