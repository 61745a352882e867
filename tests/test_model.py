import math

import numpy as np
import pytest

from nhladder.eig import RESIDUAL_RTOL, eigendecompose
from nhladder.fock import enumerate_basis
from nhladder.model import (ModelParams, SectorPlan, build_hamiltonian,
                            build_single_particle_matrix, onsite_energy,
                            sector_basis)

from oracles import (brute_boson_hamiltonian, brute_fermion_hamiltonian,
                     multisets_close, per_state_hamiltonian, per_term_entries)
from test_lapack import read_every


def test_defaults_are_mirrored_nonreciprocal_pair():
    p = ModelParams(cells=4, particles=2)
    assert (p.jl_a, p.jr_a, p.jl_b, p.jr_b) == (1.0, 0.5, 0.5, 1.0)
    assert p.jp == 0.0 and p.mu == 0.0 and p.u == 0.0


def test_from_j_alpha():
    alpha = math.log(2.0) / 2.0
    p = ModelParams.from_j_alpha(4, 2, j=math.exp(-alpha), alpha=alpha, u=4.0)
    assert p.jl_a == pytest.approx(1.0, abs=1e-15)
    assert p.jr_a == pytest.approx(0.5, abs=1e-15)
    assert p.jl_b == pytest.approx(0.5, abs=1e-15)
    assert p.jr_b == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("j,alpha", [(1.0, 800.0), (1.0, -800.0),
                                     (0.0, 1e308)])
def test_from_j_alpha_rejects_an_alpha_that_overflows(j, alpha):
    # e^alpha or e^-alpha overflows a double: a ValueError naming alpha
    with pytest.raises(ValueError, match="^alpha: "):
        ModelParams.from_j_alpha(4, 2, j=j, alpha=alpha)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(cells=0, particles=1)
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=0)
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=1, statistics="spin")
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=5, statistics="fermion")
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=1, jp=math.inf)
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=1, statistics="boson", u_nn=1.0)
    with pytest.raises(ValueError):
        ModelParams(cells=2, particles=1, statistics="fermion", u=1.0)


def test_boson_hamiltonian_matches_kron_oracle():
    p = ModelParams(cells=2, particles=2, jp=0.3, mu=0.7, u=4.0)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    brute = brute_boson_hamiltonian(2, 2, p.jl_a, p.jr_a, p.jl_b, p.jr_b,
                                    0.3, 0.7, 4.0, basis.states)
    assert np.allclose(dense, brute, rtol=0.0, atol=1e-13)


def test_boson_hamiltonian_matches_kron_oracle_three_particles():
    p = ModelParams(cells=2, particles=3, jp=0.2, mu=-0.4, u=2.5)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    brute = brute_boson_hamiltonian(2, 3, p.jl_a, p.jr_a, p.jl_b, p.jr_b,
                                    0.2, -0.4, 2.5, basis.states)
    assert np.allclose(dense, brute, rtol=0.0, atol=1e-13)


def test_fermion_hamiltonian_matches_jw_oracle():
    p = ModelParams(cells=2, particles=2, statistics="fermion",
                    jp=0.3, mu=0.7, u_nn=3.0)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    brute = brute_fermion_hamiltonian(2, p.jl_a, p.jr_a, p.jl_b, p.jr_b,
                                      0.3, 0.7, 3.0, basis.states)
    assert np.allclose(dense, brute, rtol=0.0, atol=1e-13)


def test_fermion_hamiltonian_matches_jw_oracle_three_cells():
    p = ModelParams(cells=3, particles=2, statistics="fermion",
                    jp=0.15, mu=0.4, u_nn=2.0)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    brute = brute_fermion_hamiltonian(3, p.jl_a, p.jr_a, p.jl_b, p.jr_b,
                                      0.15, 0.4, 2.0, basis.states)
    assert np.allclose(dense, brute, rtol=0.0, atol=1e-13)


PER_STATE_SECTORS = [(cells, n, stats)
                     for cells in range(1, 7)
                     for n in range(1, 5)
                     for stats in ("boson", "fermion")
                     if stats == "boson" or n <= 2 * cells] + [(1, 70, "boson")]


@pytest.mark.parametrize("cells,particles,statistics", PER_STATE_SECTORS)
def test_hamiltonian_bit_identical_to_per_state_assembly(cells, particles,
                                                         statistics):
    interaction = "u" if statistics == "boson" else "u_nn"
    generic = ModelParams(cells=cells, particles=particles, statistics=statistics,
                          jl_a=1.13, jr_a=0.41, jl_b=0.57, jr_b=1.29, jp=0.0123,
                          mu=-0.317, **{interaction: 3.7})
    # zero rung and zero mu take the skipped-coefficient and zero-diagonal paths
    sparse = generic.with_updates(jp=0.0, mu=0.0)
    for p in (generic, sparse):
        dense = build_hamiltonian(p, sector_basis(p)).to_dense()
        assert np.array_equal(dense, per_state_hamiltonian(p))


def test_n1_hamiltonian_equals_single_particle_matrix_exactly():
    p = ModelParams(cells=5, particles=1, jp=0.2, mu=0.3)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    assert np.array_equal(dense, build_single_particle_matrix(p))


def test_single_particle_matrix_frozen_three_cells():
    p = ModelParams(cells=3, particles=1)
    h = build_single_particle_matrix(p)
    leg_a = np.array([[0.0, -1.0, 0.0], [-0.5, 0.0, -1.0], [0.0, -0.5, 0.0]])
    leg_b = np.array([[0.0, -0.5, 0.0], [-1.0, 0.0, -0.5], [0.0, -1.0, 0.0]])
    assert np.array_equal(h[:3, :3], leg_a)
    assert np.array_equal(h[3:, 3:], leg_b)
    assert np.array_equal(h[:3, 3:], np.zeros((3, 3)))


def test_hop_sign_convention_frozen():
    # column |2,0,0,0>: moving the doublon right on leg A costs -jr sqrt(2)
    p = ModelParams(cells=2, particles=2, u=4.0)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    col = basis.rank((2, 0, 0, 0))
    row = basis.rank((1, 1, 0, 0))
    assert dense[row, col] == pytest.approx(-0.7071067811865476, abs=1e-15)
    # and moving it back left costs -jl sqrt(2)
    assert dense[col, row] == pytest.approx(-1.4142135623730951, abs=1e-15)


def test_diagonal_energies():
    p = ModelParams(cells=2, particles=2, u=4.0, mu=0.2)
    basis = sector_basis(p)
    dense = build_hamiltonian(p, basis).to_dense()
    doublon_a = basis.rank((2, 0, 0, 0))
    assert dense[doublon_a, doublon_a] == pytest.approx(4.4, abs=1e-15)
    doublon_b = basis.rank((0, 0, 2, 0))
    assert dense[doublon_b, doublon_b] == pytest.approx(3.6, abs=1e-15)


def test_onsite_energy_examples():
    p = ModelParams(cells=3, particles=3, u=16.0, mu=1.25)
    # triplon on leg B: 3u - 3mu
    assert onsite_energy((0, 0, 0, 0, 3, 0), p) == pytest.approx(48.0 - 3.75)
    # doublon plus single, all on leg A: u + 3mu
    assert onsite_energy((2, 1, 0, 0, 0, 0), p) == pytest.approx(16.0 + 3.75)
    f = ModelParams(cells=3, particles=2, statistics="fermion",
                    u_nn=16.0, mu=0.5)
    assert onsite_energy((1, 1, 0, 0, 0, 0), f) == pytest.approx(17.0)
    assert onsite_energy((1, 0, 1, 0, 0, 0), f) == pytest.approx(1.0)
    assert onsite_energy((1, 0, 0, 1, 0, 0), f) == pytest.approx(16.0 * 0 + 0.0)


def test_hamiltonian_is_real_and_asymmetric():
    p = ModelParams(cells=3, particles=2, jp=0.1, mu=0.2, u=4.0)
    basis = sector_basis(p)
    op = build_hamiltonian(p, basis)
    assert op.values.dtype == np.float64
    dense = op.to_dense()
    assert not np.allclose(dense, dense.T)  # non-reciprocal by construction


def test_mu_reflection_pairs_spectra():
    base = dict(cells=6, particles=2, jp=0.01, u=4.0)
    plus = build_hamiltonian(ModelParams(mu=0.7, **base),
                             sector_basis(ModelParams(mu=0.7, **base))).to_dense()
    minus = build_hamiltonian(ModelParams(mu=-0.7, **base),
                              sector_basis(ModelParams(mu=-0.7, **base))).to_dense()
    assert multisets_close(np.linalg.eigvals(plus), np.linalg.eigvals(minus),
                           1e-8)


def test_basis_params_mismatch_rejected():
    p = ModelParams(cells=3, particles=2)
    with pytest.raises(ValueError):
        build_hamiltonian(p, enumerate_basis(3, 1, "boson"))
    with pytest.raises(ValueError):
        build_hamiltonian(p, enumerate_basis(3, 2, "fermion"))


def test_onsite_energy_rejects_wrong_length():
    p = ModelParams(cells=3, particles=2)
    with pytest.raises(ValueError):
        onsite_energy((1, 1), p)


REFLECTION_SECTORS = [(1, 2, "boson"), (3, 2, "boson"), (4, 3, "boson"),
                      (5, 2, "boson"), (2, 4, "boson"), (3, 2, "fermion"),
                      (4, 3, "fermion"), (5, 4, "fermion"), (3, 5, "fermion")]


@pytest.mark.parametrize("cells,particles,statistics", REFLECTION_SECTORS)
def test_leg_reflection_maps_hamiltonian_to_its_transpose(cells, particles,
                                                          statistics):
    # reflecting both legs (x -> L-1-x) swaps left and right hops, so
    # R H R^T = H^T for any per-leg amplitudes, jp, mu and interaction;
    # for fermions R reverses each leg's creation operators, a sign of
    # (-1)^(n(n-1)/2) per leg
    rng = np.random.default_rng(100 * cells + 10 * particles + len(statistics))
    values = dict(zip(("jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu"),
                      rng.normal(size=6)))
    values["u" if statistics == "boson" else "u_nn"] = 4.0 * rng.normal()
    p = ModelParams(cells=cells, particles=particles, statistics=statistics,
                    **values)
    basis = sector_basis(p)
    h = build_hamiltonian(p, basis).to_dense()
    legs = basis.occupations.reshape(-1, 2, cells)
    image = basis.rank_all(legs[:, :, ::-1].reshape(-1, 2 * cells))
    sign = np.ones(basis.dimension)
    if statistics == "fermion":
        n = legs.sum(axis=2).astype(np.int64)
        sign = (-1.0) ** ((n * (n - 1) // 2).sum(axis=1))
    assert np.array_equal(image[image], np.arange(basis.dimension))
    assert np.array_equal(sign[:, None] * h[np.ix_(image, image)] * sign, h.T)


PLAN_SECTORS = [(4, 2, "boson"), (3, 3, "boson"), (1, 3, "boson"),
                (4, 3, "fermion"), (3, 2, "fermion"), (2, 4, "fermion")]


@pytest.mark.parametrize("cells,particles,statistics", PLAN_SECTORS)
def test_plan_operator_bit_identical_to_per_term_assembly(cells, particles,
                                                          statistics):
    # one plan serves every draw of its sector; zeroed rung, mu,
    # interaction and leg hops take the skipped-term and empty-diagonal paths
    interaction = "u" if statistics == "boson" else "u_nn"
    names = ("jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu", interaction)
    rng = np.random.default_rng(7 * cells + particles + len(statistics))
    plan = SectorPlan(enumerate_basis(cells, particles, statistics))
    for draw in range(12):
        values = dict(zip(names, rng.normal(size=len(names))))
        for name in (("jp",), ("mu",), (interaction,), ("jr_b",),
                     ("jp", "mu", interaction), ())[draw % 6]:
            values[name] = 0.0
        p = ModelParams(cells=cells, particles=particles,
                        statistics=statistics, **values)
        op = plan.operator(p)
        rows, cols, vals = per_term_entries(p, plan.basis)
        assert op.dimension == plan.basis.dimension
        assert np.array_equal(op.rows, rows)
        assert np.array_equal(op.cols, cols)
        assert op.values.dtype == vals.dtype
        assert np.array_equal(op.values.view(np.uint64), vals.view(np.uint64))


def test_plan_rejects_params_of_another_sector():
    plan = SectorPlan(enumerate_basis(3, 2, "boson"))
    for p in (ModelParams(cells=3, particles=1),
              ModelParams(cells=3, particles=2, statistics="fermion")):
        with pytest.raises(ValueError, match="does not match params"):
            plan.operator(p)


@pytest.mark.parametrize("cells,particles,statistics", [
    (8, 1, "boson"), (8, 2, "boson"), (8, 3, "boson"), (20, 2, "boson"),
    (1, 2, "boson"), (20, 2, "fermion"), (6, 3, "fermion"),
    (1, 2, "fermion")],
    ids=["boson L=8 N=1", "boson L=8 N=2", "boson L=8 N=3", "boson L=20 N=2",
         "boson L=1 N=2", "fermion L=20 N=2", "fermion L=6 N=3",
         "fermion L=1 N=2"])
def test_plan_band_order_keeps_nonzeros_between_adjacent_levels(
        cells, particles, statistics):
    # the level of a state is its total cell coordinate S = sum n_s (s mod L)
    plan = SectorPlan(enumerate_basis(cells, particles, statistics))
    n = plan.basis.dimension
    occ = plan.basis.occupations.astype(np.int64)
    level = occ @ (np.arange(2 * cells) % cells)
    on_a = occ[:, :cells].sum(axis=1)
    widest = np.bincount(level).max()
    interaction = "u" if statistics == "boson" else "u_nn"
    base = ModelParams(cells=cells, particles=particles,
                       statistics=statistics, mu=0.2, jp=0.05,
                       **{interaction: 4.0})
    order = plan.operator(base).band_order
    assert np.array_equal(np.sort(order), np.arange(n))
    # S never decreases along the order, nor N_A within one S
    key = level * (particles + 1) + on_a
    assert np.all(np.diff(key[order]) >= 0)
    position = np.empty(n, np.int64)
    position[order] = np.arange(n)
    # jp = 0 drops the rung terms, jl_a = 0 and jr_b = 0 a leg's
    for p in (base, base.with_updates(jp=0.0), base.with_updates(jl_a=0.0),
              base.with_updates(jr_b=0.0)):
        op = plan.operator(p)
        assert np.array_equal(op.band_order, order)
        # L=1 fermions fill both sites: at jp = 0 no nonzero is left
        assert np.abs(level[op.rows] - level[op.cols]).max(initial=0) <= 1
        i, j = position[op.rows], position[op.cols]
        assert np.max(i - j, initial=0) <= 2 * widest
        assert np.max(j - i, initial=0) <= 2 * widest
    assert np.array_equal(build_hamiltonian(base, plan.basis).band_order,
                          order)


@pytest.mark.parametrize("cells,particles,statistics", [
    (8, 2, "boson"), (6, 2, "fermion")])
def test_plan_band_order_serves_every_operator(cells, particles, statistics):
    plan = SectorPlan(enumerate_basis(cells, particles, statistics))
    interaction = "u" if statistics == "boson" else "u_nn"
    base = ModelParams(cells=cells, particles=particles,
                       statistics=statistics, mu=0.2, **{interaction: 4.0})
    # jp = 0 drops the rung terms and jr_b = 0 a leg's; the plan's one
    # order still verifies the deciding eigenpair of the eigenvalue-only
    # solve, as it does with every hop term nonzero
    for p in (base, base.with_updates(jp=0.05, jr_b=0.0),
              base.with_updates(jp=0.05)):
        result = eigendecompose(plan.operator(p), reads=read_every)
        assert result.eigenvectors is None  # no full-solve fallback
        checked = result.residuals[np.isfinite(result.residuals)]
        assert len(checked) == 1
        assert checked[0] <= RESIDUAL_RTOL * result.matrix_norm
