import functools
import math
import tracemalloc

import numpy as np
import pytest

from nhladder import observables
from nhladder.eig import SpectrumResult, eigendecompose
from nhladder.fock import enumerate_basis
from nhladder.model import ModelParams, build_hamiltonian, sector_basis
from nhladder.observables import (CHUNK, bound_clusters, classify_cluster,
                                  cluster_spectrum,
                                  correlation_ncor, correlation_ncor_all,
                                  default_min_gap, entanglement_entropy,
                                  label_clusters, left_half_sites, leg_sites,
                                  min_gap_for, pair_correlation, pair_density,
                                  polarization, polarization_all,
                                  select_clusters, site_density,
                                  site_density_all)

from oracles import brute_fermion_entropy, einsum_ncor

LN2 = 0.6931471805599453


def unit_vector(basis, amplitudes):
    """Vector with given {state: amplitude} entries, normalized."""
    v = np.zeros(basis.dimension, dtype=complex)
    for state, amp in amplitudes.items():
        v[basis.rank(state)] = amp
    return v / np.linalg.norm(v)


def synthetic_result(eigenvalues, eigenvectors=None):
    ev = np.asarray(eigenvalues, dtype=complex)
    if eigenvectors is None:
        eigenvectors = np.eye(len(ev), dtype=complex)
    return SpectrumResult(eigenvalues=ev,
                          eigenvectors=np.asarray(eigenvectors, dtype=complex),
                          residuals=np.zeros(len(ev)),
                          matrix_norm=1.0)


# ---------------------------------------------------------------------------
# densities and polarization

def test_site_density_of_doublon():
    basis = enumerate_basis(2, 2, "boson")
    v = unit_vector(basis, {(0, 2, 0, 0): 1.0})
    dens = site_density(v, basis)
    assert np.allclose(dens, [0.0, 2.0, 0.0, 0.0])


def test_site_density_sums_to_particle_number_on_eigenstates():
    p = ModelParams(cells=3, particles=2, jp=0.3, mu=0.7, u=4.0)
    basis = sector_basis(p)
    result = eigendecompose(build_hamiltonian(p, basis))
    for k in range(result.dimension):
        dens = site_density(result.eigenvectors[:, k], basis)
        assert dens.sum() == pytest.approx(2.0, abs=1e-9)
        assert np.all(dens >= -1e-12)


def test_polarization_extremes_and_range():
    basis = enumerate_basis(2, 2, "boson")
    assert polarization(unit_vector(basis, {(1, 1, 0, 0): 1.0}), basis) == 1.0
    assert polarization(unit_vector(basis, {(0, 0, 1, 1): 1.0}), basis) == -1.0
    assert polarization(unit_vector(basis, {(1, 0, 1, 0): 1.0}), basis) == 0.0
    p = ModelParams(cells=3, particles=2, jp=0.2, mu=0.1, u=2.0)
    b = sector_basis(p)
    result = eigendecompose(build_hamiltonian(p, b))
    for k in range(result.dimension):
        assert -1.0 <= polarization(result.eigenvectors[:, k], b) <= 1.0


def test_zero_vector_rejected():
    basis = enumerate_basis(2, 2, "boson")
    with pytest.raises(ValueError):
        site_density(np.zeros(basis.dimension), basis)
    with pytest.raises(ValueError):
        site_density(np.zeros(3), basis)


# ---------------------------------------------------------------------------
# pair density and the participation measure

def test_pair_density_doublon_and_pinned_pair():
    basis = enumerate_basis(2, 2, "boson")
    rho = pair_density(unit_vector(basis, {(2, 0, 0, 0): 1.0}), basis)
    assert rho[0, 0] == pytest.approx(4.0)
    assert np.allclose(rho[1:, :], 0.0)
    rho = pair_density(unit_vector(basis, {(1, 0, 0, 1): 1.0}), basis)
    assert rho[0, 3] == pytest.approx(1.0)
    assert rho[3, 0] == pytest.approx(1.0)
    assert rho[0, 0] == pytest.approx(1.0)  # <n^2> on a singly occupied site


def test_pair_correlation_subtracts_density_diagonal():
    basis = enumerate_basis(2, 2, "boson")
    v = unit_vector(basis, {(1, 0, 0, 1): 1.0})
    g = pair_correlation(v, basis)
    assert g[0, 0] == pytest.approx(0.0)  # <n(n-1)> vanishes for n=1
    assert g[0, 3] == pytest.approx(1.0)


def test_ncor_frozen_values():
    basis = enumerate_basis(2, 2, "boson")
    # two pinned particles on distinct sites
    assert correlation_ncor(unit_vector(basis, {(1, 1, 0, 0): 1.0}), basis) \
        == pytest.approx(-2.0, abs=1e-12)
    # a single pinned doublon
    assert correlation_ncor(unit_vector(basis, {(2, 0, 0, 0): 1.0}), basis) \
        == pytest.approx(0.0, abs=1e-12)


def test_ncor_even_doublon_spread():
    # doublon smeared evenly over the L cells of one leg: 4 (1 - 1/L)
    for cells in (5, 15):
        basis = enumerate_basis(cells, 2, "boson")
        amps = {}
        for x in range(cells):
            state = [0] * (2 * cells)
            state[x] = 2
            amps[tuple(state)] = 1.0
        v = unit_vector(basis, amps)
        assert correlation_ncor(v, basis) \
            == pytest.approx(4.0 * (1.0 - 1.0 / cells), abs=1e-12)
    assert 4.0 * (1.0 - 1.0 / 15.0) == pytest.approx(3.7333333333333334)


def test_ncor_upper_bound_over_random_states():
    # (tr G)^2 <= 4 and ||G||_F^2 >= (tr G)^2 / (2L) give
    # ncor <= 4 (1 - 1/(2L)) for every two-particle state
    rng = np.random.default_rng(9)
    basis = enumerate_basis(4, 2, "boson")
    bound = 4.0 * (1.0 - 1.0 / 8.0)
    for _ in range(200):
        v = rng.normal(size=basis.dimension) \
            + 1j * rng.normal(size=basis.dimension)
        assert correlation_ncor(v, basis) <= bound + 1e-9


def test_ncor_requires_two_particles():
    with pytest.raises(ValueError):
        correlation_ncor(np.ones(8), enumerate_basis(4, 1, "boson"))
    with pytest.raises(ValueError):
        pair_density(np.ones(8), enumerate_basis(4, 1, "boson"))


def test_ncor_batch_matches_single(monkeypatch):
    p = ModelParams(cells=3, particles=2, jp=0.2, mu=0.1, u=3.0)
    basis = sector_basis(p)
    result = eigendecompose(build_hamiltonian(p, basis))
    monkeypatch.setattr(observables, "CHUNK", 7)
    batch = correlation_ncor_all(result.eigenvectors, basis)
    for k in range(result.dimension):
        single = correlation_ncor(result.eigenvectors[:, k], basis)
        assert batch[k] == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("stats", ["boson", "fermion"])
@pytest.mark.parametrize("cells", [3, 4, 5, 6])
def test_ncor_closed_form_matches_einsum_oracle(stats, cells, monkeypatch):
    rng = np.random.default_rng(cells)
    interaction = {"u": 3.0} if stats == "boson" else {"u_nn": 2.0}
    p = ModelParams(cells=cells, particles=2, statistics=stats, jp=0.2,
                    mu=0.1, **interaction)
    basis = sector_basis(p)
    dim = basis.dimension
    random = rng.normal(size=(dim, 9)) + 1j * rng.normal(size=(dim, 9))
    eigen = eigendecompose(build_hamiltonian(p, basis)).eigenvectors
    for vectors in (random, eigen):
        expected = einsum_ncor(vectors, basis.states)
        for chunk in (1, 7, dim):
            monkeypatch.setattr(observables, "CHUNK", chunk)
            got = correlation_ncor_all(vectors, basis)
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_batched_observables_reject_zero_column_and_bad_length():
    basis = enumerate_basis(3, 2, "boson")
    vectors = np.ones((basis.dimension, 3))
    vectors[:, 1] = 0.0
    for fn in (correlation_ncor_all, site_density_all, polarization_all):
        with pytest.raises(ValueError):
            fn(vectors, basis)
    with pytest.raises(ValueError):
        correlation_ncor_all(np.ones((basis.dimension - 1, 2)), basis)
    with pytest.raises(ValueError):
        correlation_ncor_all(np.ones((6, 2)), enumerate_basis(3, 1, "boson"))


def test_observables_add_only_chunks_of_eigenvectors():
    # numpy reports its buffers to tracemalloc: everything the spectrum
    # command computes from the eigenvectors stays within a few
    # dimension x CHUNK complex arrays
    p = ModelParams(cells=20, particles=2, jp=0.01, mu=0.2, u=4.0)
    basis = sector_basis(p)
    result = eigendecompose(build_hamiltonian(p, basis))
    tracemalloc.start()
    try:
        label_clusters(result, basis, select_clusters(result, p)["all"])
        polarization_all(result.eigenvectors, basis)
        correlation_ncor_all(result.eigenvectors, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * CHUNK * basis.dimension


def test_site_density_chunks_agree(monkeypatch):
    p = ModelParams(cells=4, particles=2, jp=0.2, mu=0.1, u=3.0)
    basis = sector_basis(p)
    vectors = eigendecompose(build_hamiltonian(p, basis)).eigenvectors
    monkeypatch.setattr(observables, "CHUNK", basis.dimension)
    whole = site_density_all(vectors, basis)
    for chunk in (1, 7):
        monkeypatch.setattr(observables, "CHUNK", chunk)
        np.testing.assert_allclose(site_density_all(vectors, basis),
                                   whole, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# entanglement entropy

def test_entropy_single_particle_on_a_rung():
    basis = enumerate_basis(1, 1, "boson")
    v = unit_vector(basis, {(1, 0): 1.0, (0, 1): 1.0})
    assert entanglement_entropy(v, basis, [0]) == pytest.approx(LN2, abs=1e-12)


def test_entropy_product_state_is_zero():
    basis = enumerate_basis(2, 2, "boson")
    v = unit_vector(basis, {(2, 0, 0, 0): 1.0})
    assert entanglement_entropy(v, basis, [0]) == pytest.approx(0.0, abs=1e-12)
    # state supported on leg A only: cutting along the legs gives zero
    v = unit_vector(basis, {(2, 0, 0, 0): 0.6, (1, 1, 0, 0): 0.8})
    assert entanglement_entropy(v, basis, leg_sites(2, "A")) \
        == pytest.approx(0.0, abs=1e-12)


def test_entropy_subset_complement_symmetry():
    rng = np.random.default_rng(21)
    for stats in ("boson", "fermion"):
        for cells, n in ((2, 2), (3, 2), (2, 3)):
            if stats == "fermion" and n > 2 * cells:
                continue
            basis = enumerate_basis(cells, n, stats)
            v = rng.normal(size=basis.dimension) \
                + 1j * rng.normal(size=basis.dimension)
            for subset in ([0], [0, 2], [1, 2 * cells - 1]):
                complement = [s for s in range(2 * cells) if s not in subset]
                assert entanglement_entropy(v, basis, subset) == pytest.approx(
                    entanglement_entropy(v, basis, complement), abs=1e-10)


def test_fermion_entropy_matches_jw_oracle():
    rng = np.random.default_rng(3)
    for cells in (2, 3):
        basis = enumerate_basis(cells, 2, "fermion")
        v = rng.normal(size=basis.dimension) \
            + 1j * rng.normal(size=basis.dimension)
        for subset in ([0], [0, 2], [1, 3], [0, 1, 2]):
            assert entanglement_entropy(v, basis, subset) == pytest.approx(
                brute_fermion_entropy(v, basis.states, subset), abs=1e-10)


def test_entropy_subset_validation():
    basis = enumerate_basis(2, 2, "boson")
    v = unit_vector(basis, {(1, 1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        entanglement_entropy(v, basis, [])
    with pytest.raises(ValueError):
        entanglement_entropy(v, basis, [0, 0])
    with pytest.raises(ValueError):
        entanglement_entropy(v, basis, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        entanglement_entropy(v, basis, [4])
    with pytest.raises(ValueError, match="does not match"):
        entanglement_entropy(v[:-1], basis, [0])
    with pytest.raises(ValueError, match="zero vector"):
        entanglement_entropy(np.zeros_like(v), basis, [0])


def test_site_helpers():
    assert leg_sites(3, "A") == [0, 1, 2]
    assert leg_sites(3, "B") == [3, 4, 5]
    assert left_half_sites(4) == [0, 1, 4, 5]
    assert left_half_sites(5) == [0, 1, 5, 6]
    with pytest.raises(ValueError):
        left_half_sites(1)
    with pytest.raises(ValueError):
        leg_sites(3, "C")


# ---------------------------------------------------------------------------
# clustering

def test_cluster_two_groups():
    result = synthetic_result([0.1, 4.1, 0.2, 4.2])
    clusters = cluster_spectrum(result, min_gap=0.1)
    assert [c.size for c in clusters] == [2, 2]
    assert clusters[0].members == (0, 2)
    assert clusters[1].members == (1, 3)
    assert clusters[0].re_range == (0.1, 0.2)


def test_cluster_uniform_spacing_is_single_cluster():
    result = synthetic_result(np.linspace(0.0, 1.0, 11))
    clusters = cluster_spectrum(result, min_gap=0.2)
    assert len(clusters) == 1
    assert clusters[0].size == 11


def test_cluster_partition_property():
    rng = np.random.default_rng(17)
    for _ in range(10):
        values = rng.normal(size=40) * rng.choice([1.0, 5.0])
        result = synthetic_result(values)
        clusters = cluster_spectrum(result, min_gap=0.05)
        seen = [m for c in clusters for m in c.members]
        assert sorted(seen) == list(range(40))
        res = np.asarray(values).real
        for c in clusters:
            lo, hi = c.re_range
            assert lo <= hi
            assert np.all(res[list(c.members)] >= lo - 1e-12)
            assert np.all(res[list(c.members)] <= hi + 1e-12)
        # ordered by Re
        highs = [c.re_range[1] for c in clusters]
        lows = [c.re_range[0] for c in clusters]
        assert all(h < l for h, l in zip(highs, lows[1:]))


def test_cluster_max_im_and_representative():
    result = synthetic_result([0.1 + 0.0j, 0.2 + 0.3j, 0.3 - 0.5j])
    clusters = cluster_spectrum(result, min_gap=1.0)
    assert len(clusters) == 1
    assert clusters[0].max_im == pytest.approx(0.3)
    assert clusters[0].representative == 2  # largest |Im|


@pytest.mark.parametrize("length", [1, 2, 7, 8, 135, 136])
def test_median_gap_matches_numpy_median_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for scale in (1e-12, 1.0, 1e3):
        values = np.sort(rng.normal(size=length + 1)) * scale
        for gaps in (np.diff(values), np.round(np.diff(values), 2)):
            ours = observables._median(gaps)
            assert type(ours) is float
            assert np.float64(ours).tobytes() == np.median(gaps).tobytes()


def test_cluster_validation():
    result = synthetic_result([0.0, 1.0])
    for gap_factor in (0.0, float("nan")):
        with pytest.raises(ValueError):
            cluster_spectrum(result, gap_factor=gap_factor, min_gap=0.1)
    for min_gap in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            cluster_spectrum(result, min_gap=min_gap)
    # min_gap has no default to fall back on
    with pytest.raises(TypeError):
        cluster_spectrum(result)


# ---------------------------------------------------------------------------
# bound band

def _bound_members(params):
    basis = sector_basis(params)
    result = eigendecompose(build_hamiltonian(params, basis))
    groups = select_clusters(result, params)
    members = [m for c in groups["bound"] for m in c.members]
    return result, groups, np.asarray(members, dtype=int)


@pytest.mark.parametrize("interaction, stats, size", [
    ({"u": 8.0}, "boson", 8),         # a doublon on each of the 2L sites
    ({"u_nn": 8.0}, "fermion", 6),    # a neighbor pair on each leg bond
    ({"u": -8.0}, "boson", 8),        # attractive: the band sits near -8
])
def test_bound_clusters_pick_the_pair_band(interaction, stats, size):
    params = ModelParams(cells=4, particles=2, statistics=stats, jp=0.01,
                         mu=0.2, **interaction)
    (energy,) = interaction.values()
    assert params.pair_energy == energy
    result, groups, members = _bound_members(params)
    clusters = groups["all"]
    assert clusters == cluster_spectrum(
        result, min_gap=min_gap_for(params, None))
    # scattering and bound partition the clusters in order, as
    # bound_clusters splits them
    flags = bound_clusters(result, clusters, params.pair_energy)
    assert groups["scattering"] == [c for c, b in zip(clusters, flags) if not b]
    assert groups["bound"] == [c for c, b in zip(clusters, flags) if b]
    assert len(clusters) == 2
    assert len(members) == size
    assert np.all(np.abs(result.eigenvalues[members].real - energy) < 1.0)
    # without a pair energy nothing is bound
    assert bound_clusters(result, clusters, 0.0) == [False, False]


# ---------------------------------------------------------------------------
# cluster labels

def _single_state_cluster(basis, amplitudes, eigenvalue=0.0):
    v = unit_vector(basis, amplitudes)
    result = synthetic_result([eigenvalue], v[:, None])
    (cluster,) = cluster_spectrum(result, min_gap=0.1)
    return cluster, result


def test_classify_right_bound():
    basis = enumerate_basis(12, 2, "boson")
    amps = {}
    for x in (9, 10, 11):  # right 25 percent window of cells
        state = [0] * 24
        state[x] = 2
        amps[tuple(state)] = 1.0
    cluster, result = _single_state_cluster(basis, amps)
    # ncor = 4 (1 - 1/3) = 2.67 > 2 + dead zone, density all right
    assert classify_cluster(cluster, result, basis) == "RB"


def test_classify_left_scattering():
    basis = enumerate_basis(12, 2, "boson")
    cluster, result = _single_state_cluster(
        basis, {(1, 1) + (0,) * 22: 1.0})
    assert classify_cluster(cluster, result, basis) == "LS"


def test_classify_bilateral_scattering():
    basis = enumerate_basis(12, 2, "boson")
    left = [0] * 24
    left[0] = left[1] = 1
    right = [0] * 24
    right[10] = right[11] = 1
    cluster, result = _single_state_cluster(
        basis, {tuple(left): 1.0, tuple(right): 1.0})
    assert classify_cluster(cluster, result, basis) == "BiS"


def test_classify_mixed():
    basis = enumerate_basis(12, 2, "boson")
    amps = {}
    for x, weight in ((9, 0.8), (10, 0.1), (11, 0.1)):
        state = [0] * 24
        state[x] = 2
        amps[tuple(state)] = math.sqrt(weight)
    cluster, result = _single_state_cluster(basis, amps)
    # ncor = 4 (1 - 0.66) = 1.36: between the dead zones
    assert classify_cluster(cluster, result, basis) == "mixed"


def test_classify_dead_zones_and_missing_prefix():
    basis = enumerate_basis(12, 2, "boson")
    # lone doublon: ncor = 0 sits in the [-eps, 0] dead zone
    state = [0] * 24
    state[11] = 2
    cluster, result = _single_state_cluster(basis, {tuple(state): 1.0})
    assert classify_cluster(cluster, result, basis) == "unclassified"
    # scattering pair in the bulk: suffix S but no prefix qualifies
    mid = [0] * 24
    mid[5] = mid[6] = 1
    cluster, result = _single_state_cluster(basis, {tuple(mid): 1.0})
    assert classify_cluster(cluster, result, basis) == "unclassified"


def test_classify_needs_two_particles():
    basis = enumerate_basis(6, 1, "boson")
    state = [0] * 12
    state[0] = 1
    cluster, result = _single_state_cluster(basis, {tuple(state): 1.0})
    assert classify_cluster(cluster, result, basis) == "unclassified"


@functools.lru_cache(maxsize=None)
def _five_cluster_sector():
    # two detuned bound bands on top of three scattering bands
    p = ModelParams(cells=20, particles=2, jp=0.01, mu=3.0, u=16.0)
    basis = sector_basis(p)
    return p, basis, eigendecompose(build_hamiltonian(p, basis))


def test_five_cluster_bands_with_detuned_interaction():
    p, basis, result = _five_cluster_sector()
    clusters = label_clusters(result, basis, select_clusters(result, p)["all"])
    assert [c.size for c in clusters] == [190, 400, 190, 20, 20]
    assert [c.label for c in clusters] == ["RS", "BiS", "LS", "mixed", "mixed"]
    # the skin-localized bound bands sit near u -/+ 2 mu
    assert clusters[3].re_range[0] == pytest.approx(10.0, abs=0.3)
    assert clusters[4].re_range[0] == pytest.approx(22.0, abs=0.3)


def test_labels_do_not_depend_on_the_clusters_labelled_with_them():
    p, basis, result = _five_cluster_sector()
    groups = select_clusters(result, p)
    labelled = {c.members: c for c in label_clusters(result, basis,
                                                     groups["all"])}
    for name in ("bound", "scattering"):
        assert groups[name]
        assert label_clusters(result, basis, groups[name]) == \
            [labelled[c.members] for c in groups[name]]
    for c in groups["all"]:
        assert classify_cluster(c, result, basis) == labelled[c.members].label


def test_labelling_single_state_clusters_adds_only_chunks_of_eigenvectors():
    # min_gap 0 and a small gap_factor split the spectrum into 605 clusters,
    # 420 of them single states: more representatives than fit in the bound
    # of test_observables_add_only_chunks_of_eigenvectors as one gather
    p, basis, result = _five_cluster_sector()
    clusters = select_clusters(result, p, gap_factor=0.1, min_gap=0.0)["all"]
    assert len(clusters) > 3 * CHUNK
    tracemalloc.start()
    try:
        label_clusters(result, basis, clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * CHUNK * basis.dimension


def test_default_min_gap():
    assert default_min_gap(1.0) == 0.1
    assert default_min_gap(-2.0) == 0.2
    # min_gap_for: None stands for default_min_gap(s) of the gauge
    # invariant s = sqrt(|jl_a jr_a| + |jl_b jr_b|), exactly 1 at the
    # reference amplitudes
    assert min_gap_for(ModelParams(cells=2, particles=1), None) == 0.1
    params = ModelParams(cells=2, particles=1, jl_a=-2.0, jr_a=0.5)
    assert min_gap_for(params, None) == pytest.approx(0.1 * math.sqrt(1.5))
    assert min_gap_for(params, 0.0) == 0.0
    assert min_gap_for(params, 0.3) == 0.3
