import itertools
import math

import numpy as np
import pytest

from nhladder.fock import (Basis, CapacityError, apply_single_hop,
                           basis_dimension, combined_site, enumerate_basis,
                           resolve_capacity, site_cell_leg)

from oracles import brute_fermion_hop

DESK_SECTORS = [(cells, n, stats)
                for cells in (1, 2, 3)
                for n in (1, 2, 3, 4)
                for stats in ("boson", "fermion")
                if stats == "boson" or n <= 2 * cells]


def brute_count(nsites, particles, statistics):
    cap = particles if statistics == "boson" else 1
    return sum(1 for occ in itertools.product(range(cap + 1), repeat=nsites)
               if sum(occ) == particles)


def test_dimension_formulas_match_exhaustive_enumeration():
    for cells, n, stats in DESK_SECTORS:
        dim = basis_dimension(cells, n, stats)
        assert dim == brute_count(2 * cells, n, stats)
        assert dim == enumerate_basis(cells, n, stats).dimension


def test_dimension_examples():
    assert basis_dimension(2, 2, "boson") == 10
    assert basis_dimension(2, 2, "fermion") == 6
    assert basis_dimension(20, 3, "boson") == math.comb(42, 3)


def test_states_descending_lexicographic():
    for cells, n, stats in DESK_SECTORS:
        basis = enumerate_basis(cells, n, stats)
        if stats == "boson":
            assert basis.states[0] == (n,) + (0,) * (2 * cells - 1)
        else:
            assert basis.states[0] == (1,) * n + (0,) * (2 * cells - n)
        for a, b in zip(basis.states, basis.states[1:]):
            assert a > b  # tuple comparison: strictly descending


def test_first_boson_state_piles_on_site_zero():
    basis = enumerate_basis(3, 3, "boson")
    assert basis.unrank(0) == (3, 0, 0, 0, 0, 0)
    assert basis.unrank(basis.dimension - 1) == (0, 0, 0, 0, 0, 3)


def test_rank_unrank_roundtrip():
    for cells, n, stats in DESK_SECTORS:
        basis = enumerate_basis(cells, n, stats)
        for i in range(basis.dimension):
            assert basis.rank(basis.unrank(i)) == i
        for i in (-1, basis.dimension):
            with pytest.raises(ValueError):
                basis.unrank(i)


def test_unrank_leaves_states_unbuilt():
    basis = enumerate_basis(4, 3, "fermion")
    rows = [basis.unrank(i) for i in range(basis.dimension)]
    assert "states" not in vars(basis)
    assert all(type(n) is int for n in rows[0])
    assert tuple(rows) == basis.states


def test_rank_rejects_foreign_states():
    basis = enumerate_basis(2, 2, "boson")
    with pytest.raises(ValueError):
        basis.rank((1, 0, 0, 0))  # wrong particle count
    with pytest.raises(ValueError):
        basis.rank((1, 1, 0))  # wrong length
    fermion = enumerate_basis(2, 2, "fermion")
    with pytest.raises(ValueError):
        fermion.rank((2, 0, 0, 0))  # double occupancy
    with pytest.raises(ValueError):
        basis.rank((3, -1, 0, 0))  # negative entry, right particle count
    with pytest.raises(ValueError):
        fermion.rank((1, 1, -1, 1))
    with pytest.raises(ValueError):
        basis.rank((0.5, 1.5, 0, 0))  # not an occupation number
    assert list(basis.rank_all([(2, 0, 0, 0), (0, 0, 1, 1)])) == [0, 8]
    with pytest.raises(ValueError):
        basis.rank_all([(2, 0, 0, 0), (3, -1, 0, 0), (0, 0, 1, 1)])
    with pytest.raises(ValueError):
        fermion.rank_all([(1, 1, 0, 0), (2, 0, 0, 0)])
    with pytest.raises(ValueError):
        basis.rank_all([(1, 1, 0)])  # wrong length in a batch


@pytest.mark.parametrize("cells,particles", [(1, 70), (2, 40)])
def test_rank_unrank_roundtrip_in_high_occupation_sectors(cells, particles):
    # a key built from per-site positions in base 2L overflows int64 here
    basis = enumerate_basis(cells, particles, "boson")
    for i in range(basis.dimension):
        assert basis.rank(basis.unrank(i)) == i


@pytest.mark.parametrize("cells,particles,statistics",
                         DESK_SECTORS + [(1, 70, "boson"), (2, 40, "boson")])
def test_rank_all_finds_each_row_in_any_order(cells, particles, statistics):
    # the whole sector ranks onto arange(D) in one call, and a basis built
    # from the same rows shuffled ranks each row at its own position
    basis = enumerate_basis(cells, particles, statistics)
    dim = basis.dimension
    assert np.array_equal(basis.rank_all(basis.occupations), np.arange(dim))
    shuffle = np.random.default_rng(dim).permutation(dim)
    shuffled = Basis(cells, particles, statistics, basis.occupations[shuffle])
    assert np.array_equal(shuffled.rank_all(shuffled.occupations),
                          np.arange(dim))
    assert np.array_equal(shuffled.rank_all(basis.occupations),
                          np.argsort(shuffle))


def test_n1_basis_index_is_combined_site():
    basis = enumerate_basis(4, 1, "boson")
    for site in range(8):
        state = tuple(1 if j == site else 0 for j in range(8))
        assert basis.rank(state) == site


def test_combined_site_map():
    assert combined_site(1, "A", 20) == 0
    assert combined_site(20, "A", 20) == 19
    assert combined_site(1, "B", 20) == 20
    assert combined_site(20, "B", 20) == 39
    for cells in (1, 3, 7):
        for cell in range(1, cells + 1):
            for leg in ("A", "B"):
                site = combined_site(cell, leg, cells)
                assert site_cell_leg(site, cells) == (cell, leg)


def test_combined_site_rejects_bad_input():
    with pytest.raises(ValueError):
        combined_site(0, "A", 5)
    with pytest.raises(ValueError):
        combined_site(6, "B", 5)
    with pytest.raises(ValueError):
        combined_site(1, "C", 5)
    with pytest.raises(ValueError):
        combined_site(1, "A", 0)
    with pytest.raises(ValueError):
        site_cell_leg(10, 5)


def test_boson_hop_amplitudes():
    # sqrt(n_from) * sqrt(n_to + 1)
    assert apply_single_hop((2, 0), 0, 1) == ((1, 1), math.sqrt(2))
    assert apply_single_hop((1, 1), 0, 1) == ((0, 2), math.sqrt(2))
    assert apply_single_hop((1, 0), 0, 1) == ((0, 1), 1.0)
    assert apply_single_hop((0, 1), 0, 1) is None


def test_hop_rejects_bad_sites():
    with pytest.raises(ValueError):
        apply_single_hop((1, 0), 0, 0)
    with pytest.raises(ValueError):
        apply_single_hop((1, 0), 0, 2)
    with pytest.raises(ValueError):
        apply_single_hop((1, 0), 0, 1, "anyon")


def test_fermion_hop_pauli_blocked():
    assert apply_single_hop((1, 1, 0), 0, 1, "fermion") is None
    assert apply_single_hop((1, 0, 1), 0, 1, "fermion") == ((0, 1, 1), 1.0)


def test_fermion_hop_matches_jw_matrix_oracle():
    # every 4-site state, every ordered site pair
    for state in itertools.product((0, 1), repeat=4):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                got = apply_single_hop(state, i, j, "fermion")
                expected = brute_fermion_hop(state, i, j)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[0] == expected[0]
                    assert got[1] == pytest.approx(expected[1], abs=1e-12)


def test_fermion_string_sign_example():
    # one occupied site strictly between gives a minus sign
    state = (1, 1, 0, 1)
    new, amp = apply_single_hop(state, 0, 2, "fermion")
    assert new == (0, 1, 1, 1)
    assert amp == -1.0
    new, amp = apply_single_hop(state, 3, 2, "fermion")
    assert new == (1, 1, 1, 0)
    assert amp == 1.0


def test_fermion_hop_and_back_is_identity():
    for nsites in (3, 4, 5):
        for state in itertools.product((0, 1), repeat=nsites):
            for i in range(nsites):
                for j in range(nsites):
                    if i == j:
                        continue
                    first = apply_single_hop(state, i, j, "fermion")
                    if first is None:
                        continue
                    back = apply_single_hop(first[0], j, i, "fermion")
                    assert back is not None
                    assert back[0] == state
                    assert first[1] * back[1] == 1.0


def test_capacity_budget():
    with pytest.raises(CapacityError):
        enumerate_basis(3, 2, capacity=5)  # dimension 21
    basis = enumerate_basis(3, 2, capacity=21)
    assert basis.dimension == 21


def test_capacity_env_variable(monkeypatch):
    monkeypatch.setenv("NHSE_CAPACITY", "10")
    assert enumerate_basis(2, 2).dimension == 10
    with pytest.raises(CapacityError):
        enumerate_basis(3, 2)
    # explicit argument wins over the environment
    assert enumerate_basis(3, 2, capacity=30).dimension == 21
    for env in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("NHSE_CAPACITY", env)
        with pytest.raises(ValueError, match="NHSE_CAPACITY"):
            resolve_capacity(None)
    with pytest.raises(ValueError, match="capacity must be positive"):
        resolve_capacity(0)


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_basis(0, 1)
    with pytest.raises(ValueError):
        enumerate_basis(2, 0)
    with pytest.raises(ValueError):
        enumerate_basis(2, 5, "fermion")  # more fermions than sites
    with pytest.raises(ValueError):
        enumerate_basis(2, 1, "spin")
    with pytest.raises(ValueError):
        basis_dimension(2, 1, "spin")
