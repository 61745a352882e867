"""End-to-end acceptance checks.

Each test exercises one headline behavior of the engine at the scales and
tolerances it must hold, and prints a single PASS/FAIL line (visible with
pytest -s). Unit-level correctness lives in the per-module test files.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nhladder.eig import eigendecompose, max_imag
from nhladder.fock import enumerate_basis
from nhladder.model import (ModelParams, build_hamiltonian,
                            build_single_particle_matrix, sector_basis)
from nhladder.observables import (cluster_spectrum, correlation_ncor,
                                  correlation_ncor_all, entanglement_entropy,
                                  left_half_sites, min_gap_for, site_density)
from nhladder.perturb import validate_effective_model
from nhladder.sweep import Axis, SweepSpec, find_threshold_jp, run_sweep

from oracles import hn_open_chain_spectrum, multisets_close, sorted_complex


@contextmanager
def report(num, desc, limit_s=None):
    start = time.perf_counter()
    try:
        yield
        if limit_s is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"took {elapsed:.1f}s, limit {limit_s}s"
    except BaseException:
        print(f"[criterion {num:02d}] {desc}: FAIL")
        raise
    print(f"[criterion {num:02d}] {desc}: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def diagonalize(params):
    basis = sector_basis(params)
    return basis, eigendecompose(build_hamiltonian(params, basis))


def group_peaks(result, u_scale):
    """(scattering, bound) max |Im| split by centroid proximity to 0 or u."""
    clusters = cluster_spectrum(result, min_gap=0.1)
    peaks = {"scattering": 0.0, "bound": 0.0}
    for c in clusters:
        members = np.asarray(c.members)
        centroid = result.eigenvalues[members].real.mean()
        group = "bound" if (u_scale != 0.0
                            and abs(centroid - u_scale) < abs(centroid)) else \
            "scattering"
        peak = float(np.max(np.abs(result.eigenvalues[members].imag)))
        peaks[group] = max(peaks[group], peak)
    return peaks["scattering"], peaks["bound"]


def bound_members(result, u_scale):
    clusters = cluster_spectrum(result, min_gap=0.1)
    members = []
    for c in clusters:
        idx = np.asarray(c.members)
        centroid = result.eigenvalues[idx].real.mean()
        if abs(centroid - u_scale) < abs(centroid):
            members.extend(c.members)
    return np.asarray(members)


def test_criterion_01_uncoupled_legs_stay_real():
    with report(1, "uncoupled interacting legs keep a real spectrum", 10.0):
        params = ModelParams(cells=20, particles=2, jp=0.0, mu=0.2, u=4.0)
        basis, result = diagonalize(params)
        assert basis.dimension == 820
        max_abs_im = float(np.max(np.abs(result.eigenvalues.imag)))
        assert max_abs_im <= 1e-9 * result.matrix_norm


def test_criterion_02_weak_rung_turns_bands_complex():
    with report(2, "weak rung coupling: scattering and bound bands go "
                   "complex, repulsion protects the pairs", 60.0):
        base = dict(cells=20, particles=2, jp=0.01, mu=0.2)
        _, r4 = diagonalize(ModelParams(u=4.0, **base))
        scat4, bound4 = group_peaks(r4, 4.0)
        assert scat4 > 1e-4
        assert bound4 > 1e-6
        _, r8 = diagonalize(ModelParams(u=8.0, **base))
        _, bound8 = group_peaks(r8, 8.0)
        assert bound8 <= 0.5 * bound4


def test_criterion_03_single_particle_matches_open_chain_formula():
    with report(3, "single particle reproduces the analytic open-chain "
                   "spectrum", 1.0):
        for cells in (3, 20, 50):
            params = ModelParams(cells=cells, particles=1, jp=0.0)
            result = eigendecompose(build_single_particle_matrix(params))
            band = hn_open_chain_spectrum(cells, 1.0, 0.5)
            expected = np.concatenate([band, band])
            assert multisets_close(result.eigenvalues, expected, 1e-10)
        # L=3 hits exact integers
        small = eigendecompose(build_single_particle_matrix(
            ModelParams(cells=3, particles=1)))
        assert multisets_close(small.eigenvalues,
                               [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0], 1e-10)


def test_criterion_04_mu_reflection_symmetry():
    with report(4, "mu -> -mu leaves the eigenvalue multiset invariant"):
        base = dict(cells=10, particles=2, jp=0.01, u=4.0)
        _, plus = diagonalize(ModelParams(mu=0.7, **base))
        _, minus = diagonalize(ModelParams(mu=-0.7, **base))
        assert multisets_close(plus.eigenvalues, minus.eigenvalues, 1e-8)


def test_criterion_05_effective_model_error_scales_away():
    with report(5, "bound-band deviation from the effective pair model "
                   "shrinks by 3-5x when u doubles", 30.0):
        params = ModelParams(cells=8, particles=2, jp=0.01, mu=0.0, u=16.0)
        rep = validate_effective_model(params)
        assert 3.0 <= rep.ratio <= 5.0
        assert rep.max_dev < 0.01


def test_criterion_06_ncor_separates_the_phases():
    with report(6, "pair participation separates bound, scattering, and "
                   "mixed regions", 300.0):
        # bound region probe: complex bound band, participation in [2.3, 3.3]
        params = ModelParams(cells=15, particles=2, jp=0.01, mu=0.05, u=6.0)
        basis, result = diagonalize(params)
        bm = bound_members(result, 6.0)
        rep = bm[int(np.argmax(np.abs(result.eigenvalues.imag[bm])))]
        assert np.abs(result.eigenvalues.imag[bm]).max() > 1e-6
        bound_ncor = correlation_ncor(result.eigenvectors[:, rep], basis)
        assert 2.3 <= bound_ncor <= 3.3
        # scattering probe: most complex state has negative participation
        params = ModelParams(cells=15, particles=2, jp=0.01, mu=0.2, u=4.0)
        basis, result = diagonalize(params)
        top = int(np.argmax(np.abs(result.eigenvalues.imag)))
        assert correlation_ncor(result.eigenvectors[:, top], basis) < 0.0
        # mixed probe near strong detuning
        params = ModelParams(cells=15, particles=2, jp=0.01, mu=4.0, u=16.0)
        basis, result = diagonalize(params)
        top = int(np.argmax(np.abs(result.eigenvalues.imag)))
        mixed_ncor = correlation_ncor(result.eigenvectors[:, top], basis)
        assert 0.0 < mixed_ncor < 2.0
        # full grid stays evaluable without failures
        spec = SweepSpec(base=ModelParams(cells=15, particles=2, jp=0.01,
                                          u=4.0),
                         axes=(Axis("mu", 0.0, 0.45, 10),
                               Axis("u", 2.0, 20.0, 10)),
                         observables=("max_im_global",
                                      "ncor_of_max_im_state"))
        rows = run_sweep(spec, workers=2)
        assert len(rows) == 100
        assert all(row["error"] == "" for row in rows)
        assert all(math.isfinite(row["ncor_of_max_im_state"]) for row in rows)


def test_criterion_07_bound_participation_bounded_by_even_spread():
    with report(7, "every bound-band state obeys ncor <= 4 (1 - 1/L)"):
        for cells in (8, 15):
            params = ModelParams(cells=cells, particles=2, jp=0.01, mu=0.2,
                                 u=4.0)
            basis, result = diagonalize(params)
            members = bound_members(result, 4.0)
            assert len(members) >= 2 * cells
            ncors = correlation_ncor_all(result.eigenvectors[:, members],
                                         basis)
            assert np.max(ncors) <= 4.0 * (1.0 - 1.0 / cells) + 1e-6


def test_criterion_08_joint_band_transition_strengthens_with_size():
    with report(8, "overlapping detuned bands turn complex and push weight "
                   "to the left edge as the ladder grows"):
        fractions = []
        for cells in (20, 30):
            params = ModelParams(cells=cells, particles=2, jp=0.01, mu=4.0,
                                 u=16.0)
            basis, result = diagonalize(params)
            top = int(np.argmax(np.abs(result.eigenvalues.imag)))
            assert abs(result.eigenvalues.imag[top]) > 1e-6
            # the unstable states live where the leg-A scattering band
            # (around +2 mu) overlaps the leg-B pair band (around u - 2 mu)
            assert 6.0 < result.eigenvalues.real[top] < 10.0
            dens = site_density(result.eigenvectors[:, top], basis)
            left = left_half_sites(cells)
            fractions.append(float(dens[left].sum() / 2.0))
        assert fractions[1] > fractions[0]


def test_criterion_09_fermions_show_the_same_size_transition():
    with report(9, "nearest-neighbor fermions: real at L=10, complex at "
                   "L=20", 60.0):
        base = dict(particles=2, statistics="fermion", jp=0.01, mu=4.0,
                    u_nn=16.0)
        _, small = diagonalize(ModelParams(cells=10, **base))
        assert float(np.max(np.abs(small.eigenvalues.imag))) <= 1e-6
        _, large = diagonalize(ModelParams(cells=20, **base))
        assert float(np.max(np.abs(large.eigenvalues.imag))) > 1e-6


def test_criterion_10_three_particle_threshold_drops_with_size():
    with report(10, "three bosons: complex weight at jp=0.8 grows and the "
                    "threshold coupling never increases with L", 600.0):
        peaks = []
        thresholds = []
        for cells in (6, 8, 10):
            params = ModelParams(cells=cells, particles=3, jp=0.8,
                                 mu=16.0 / 3.0, u=16.0)
            _, result = diagonalize(params)
            peaks.append(float(np.max(np.abs(result.eigenvalues.imag))))
            res = find_threshold_jp(params.with_updates(jp=0.0),
                                    eps_im=1e-2, bracket=(0.1, 1.2),
                                    resolution=0.02)
            thresholds.append(res.jp_star)
        assert peaks[0] < peaks[1] < peaks[2]
        assert thresholds[0] >= thresholds[1] >= thresholds[2]
        assert thresholds[2] < thresholds[0]  # strictly smaller overall


def test_criterion_11_property_suites_run_on_generic_parameters():
    with report(11, "property checks hold for generic parameter draws"):
        rng = np.random.default_rng(123)
        for _ in range(3):
            cells = int(rng.integers(2, 5))
            particles = int(rng.integers(1, 4))
            stats = "boson" if rng.random() < 0.5 else "fermion"
            if stats == "fermion":
                particles = min(particles, 2 * cells)
            params = ModelParams(
                cells=cells, particles=particles, statistics=stats,
                jl_a=float(rng.uniform(0.2, 2.0)),
                jr_a=float(rng.uniform(0.2, 2.0)),
                jl_b=float(rng.uniform(0.2, 2.0)),
                jr_b=float(rng.uniform(0.2, 2.0)),
                jp=float(rng.uniform(0.0, 0.5)),
                mu=float(rng.uniform(-1.0, 1.0)),
                u=float(rng.uniform(0.5, 8.0)) if stats == "boson" else 0.0,
                u_nn=float(rng.uniform(0.5, 8.0)) if stats == "fermion"
                else 0.0)
            basis = sector_basis(params)
            # bijective enumeration
            assert all(basis.rank(basis.unrank(i)) == i
                       for i in range(basis.dimension))
            result = eigendecompose(build_hamiltonian(params, basis))
            # verified decomposition: residuals, trace, conjugate closure
            assert np.all(result.residuals <= 1e-9 * result.matrix_norm)
            conj = sorted_complex(np.conj(result.eigenvalues))
            assert multisets_close(result.eigenvalues, conj, 1e-9)
            # densities sum to the particle number on every eigenstate
            for k in range(0, basis.dimension,
                           max(1, basis.dimension // 10)):
                dens = site_density(result.eigenvectors[:, k], basis)
                assert dens.sum() == pytest.approx(particles, abs=1e-8)
            # entropy is symmetric under subset <-> complement
            vec = result.eigenvectors[:, 0]
            subset = [0, basis.nsites - 1]
            complement = [s for s in range(basis.nsites) if s not in subset]
            assert entanglement_entropy(vec, basis, subset) == pytest.approx(
                entanglement_entropy(vec, basis, complement), abs=1e-9)
            # clusters partition the spectrum
            clusters = cluster_spectrum(result,
                                        min_gap=min_gap_for(params, None))
            seen = sorted(m for c in clusters for m in c.members)
            assert seen == list(range(basis.dimension))
