"""State observables and spectral cluster analysis.

Weights come from |psi|^2 of right eigenvectors, normalized to one. Spatial
observables use the combined site ordering (leg A sites 0..L-1, leg B sites
L..2L-1). Cluster analysis groups eigenvalues by gaps along the real axis
and labels each group by where its density lives (left edge, right edge,
both) and by the pair-participation measure of its most complex member.
label_clusters takes every cluster's density from one site-density pass
over all states and each representative's ncor from its own column;
classify_cluster is label_clusters of one cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .eig import SpectrumResult
from .fock import Basis
from .model import ModelParams

ENTROPY_CLAMP = 1e-14
DEAD_ZONE = 0.05
EDGE_FRACTION = 0.25
BI_THRESHOLD = 0.30
SIDE_THRESHOLD = 0.60
ALLOWED_LABELS = ("RS", "BiS", "LS", "RB", "LB", "mixed", "unclassified")
# eigenvector columns whose weights are formed at once
CHUNK = 128
# what a sweep can tabulate at each grid point (sweep.SweepSpec.observables),
# each with the table columns it fills, in column order
OBSERVABLES = {"max_im_global": ("max_im_global",),
               "max_im_per_cluster": ("max_im_scattering", "max_im_bound"),
               "ncor_of_max_im_state": ("ncor_of_max_im_state",),
               "polarization": ("polarization",),
               "entropies": ("s_ab", "s_leftright", "rho_a_frac",
                             "rho_left_frac"),
               "threshold": ("jp_star",)}
# the clusters whose reality a threshold search tests (select_clusters)
SELECTORS = ("all", "scattering", "bound")


def _weights(eigenvectors: np.ndarray, basis: Basis) -> np.ndarray:
    """|psi|^2 of each column of a (dimension, n) array, normalized to one;
    a new C-ordered array, summed down the rows whatever the input order."""
    v = np.asarray(eigenvectors)
    if v.shape[0] != basis.dimension:
        raise ValueError(f"vector length {v.shape[0]} does not match "
                         f"basis dimension {basis.dimension}")
    w = np.abs(v, order="C")
    w *= w
    total = w.sum(axis=0)
    if np.any(total == 0.0):
        raise ValueError("cannot form weights from a zero vector")
    w /= total
    return w


def _per_chunk(fn: Callable[[np.ndarray], np.ndarray],
               eigenvectors: np.ndarray, basis: Basis,
               shape: Tuple[int, ...] = ()) -> np.ndarray:
    """fn of the _weights of CHUNK columns at a time, one result row of the
    given shape per column; no temporary exceeds a few dimension x CHUNK
    arrays."""
    n = eigenvectors.shape[1]
    out = np.empty((n,) + shape)
    for start in range(0, n, CHUNK):
        part = slice(start, start + CHUNK)
        out[part] = fn(_weights(eigenvectors[:, part], basis))
    return out


def site_density_all(eigenvectors: np.ndarray, basis: Basis) -> np.ndarray:
    """Expected occupation per combined site for every eigenvector column;
    shape (n_states, 2L), each row sums to the particle number. Weights are
    formed CHUNK columns at a time."""
    return _per_chunk(lambda w: w.T @ basis.occupations,
                      np.asarray(eigenvectors), basis, (basis.nsites,))


def site_density(vector: np.ndarray, basis: Basis) -> np.ndarray:
    """site_density_all of one vector."""
    return site_density_all(np.asarray(vector)[:, None], basis)[0]


def polarization_all(eigenvectors: np.ndarray, basis: Basis) -> np.ndarray:
    """Leg imbalance (N_A - N_B) / (N_A + N_B), in [-1, 1], per column."""
    dens = site_density_all(eigenvectors, basis)
    cells = basis.cells
    n_a = dens[:, :cells].sum(axis=1)
    n_b = dens[:, cells:].sum(axis=1)
    return (n_a - n_b) / (n_a + n_b)


def polarization(vector: np.ndarray, basis: Basis) -> float:
    """polarization_all of one vector."""
    return float(polarization_all(np.asarray(vector)[:, None], basis)[0])


def pair_density(vector: np.ndarray, basis: Basis) -> np.ndarray:
    """Two-site density rho(x1, x2) = <n_x1 n_x2>, including the diagonal
    <n_x^2>. Requires at least two particles."""
    if basis.particles < 2:
        raise ValueError("pair density requires at least two particles")
    w = _weights(np.asarray(vector)[:, None], basis)
    occ = basis.occupations
    return (occ * w).T @ occ


def pair_correlation(vector: np.ndarray, basis: Basis) -> np.ndarray:
    """Connected-ordering matrix <n_x1 n_x2> - delta(x1, x2) <n_x1>, i.e.
    normal-ordered pair expectations."""
    rho = pair_density(vector, basis)
    dens = site_density(vector, basis)
    return rho - np.diag(dens)


def correlation_ncor_all(eigenvectors: np.ndarray, basis: Basis) -> np.ndarray:
    """Pair participation (tr G)^2 - ||G||_F^2 of the normal-ordered matrix
    G = <n_x n_y> - delta_xy <n_x> for every column; two particles only.

    Each Fock state i owns its own entries of G: a doublon on site x puts
    2 w_i on G_xx, a pair on sites x < y puts w_i on G_xy and G_yx, with
    w_i = |psi_i|^2 normalized. Hence tr G = sum_i 2 [doublon_i] w_i and
    ||G||_F^2 = sum_i (4 [doublon_i] + 2 [pair_i]) w_i^2: O(dimension) per
    column. Weights are formed CHUNK columns at a time.

    Equals -2 for two pinned distinguishable-site particles, 0 for a single
    doublon, and approaches 4 (1 - 1/L) for a doublon spread evenly over L
    cells of one leg."""
    if basis.particles != 2:
        raise ValueError(f"correlation_ncor is defined for exactly two "
                         f"particles, got {basis.particles}")
    trace_coef = 2.0 * (basis.occupations.max(axis=1) == 2)
    frobenius_coef = 2.0 + trace_coef  # 4 [doublon] + 2 [pair]
    return _per_chunk(
        lambda w: (trace_coef @ w) ** 2 - frobenius_coef @ (w * w),
        eigenvectors, basis)


def correlation_ncor(vector: np.ndarray, basis: Basis) -> float:
    """correlation_ncor_all of one vector."""
    return float(correlation_ncor_all(np.asarray(vector)[:, None], basis)[0])


def leg_sites(cells: int, leg: str) -> List[int]:
    """Combined site indices of one leg."""
    if leg == "A":
        return list(range(cells))
    if leg == "B":
        return list(range(cells, 2 * cells))
    raise ValueError(f"leg must be 'A' or 'B', got {leg!r}")


def left_half_sites(cells: int) -> List[int]:
    """Combined site indices of cells 1..L//2 on both legs."""
    half = cells // 2
    if half < 1:
        raise ValueError(f"left half is empty for cells={cells}")
    return list(range(half)) + list(range(cells, cells + half))


def _first_appearance_labels(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    # Label equal rows of keys 0, 1, ... in the order they first appear.
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)], len(first)


def entanglement_entropy(vector: np.ndarray, basis: Basis,
                         subset: Sequence[int]) -> float:
    """Von Neumann entropy of the reduced state on a site subset.

    Builds the amplitude matrix indexed by (subset occupation, complement
    occupation), takes singular values, and sums -p ln p over p = s^2 with
    contributions below 1e-14 dropped. Fermion amplitudes pick up the
    parity of reordering subset operators in front of complement operators.
    Symmetric under subset <-> complement.
    """
    if len(vector) != basis.dimension:
        raise ValueError(f"vector length {len(vector)} does not match "
                         f"basis dimension {basis.dimension}")
    nsites = basis.nsites
    subset = sorted(int(s) for s in subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    if subset[0] < 0 or subset[-1] >= nsites:
        raise ValueError(f"subset sites must be in 0..{nsites - 1}")
    if len(set(subset)) != len(subset):
        raise ValueError("subset contains duplicate sites")
    if len(subset) == nsites:
        raise ValueError("subset must be a proper subset of the sites")

    in_subset = np.zeros(nsites, dtype=bool)
    in_subset[subset] = True

    v = np.asarray(vector, dtype=np.complex128)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot compute entropy of a zero vector")
    v = v / norm

    present = np.flatnonzero(v != 0.0)
    occ = basis.occupations[present]
    amps = v[present]
    if basis.statistics == "fermion":
        # Parity of the permutation moving subset creation operators (site
        # order) in front of complement operators: each occupied subset site
        # crosses the occupied complement sites before it.
        before = np.cumsum(occ * ~in_subset, axis=1)
        crossings = (occ[:, subset] * before[:, subset]).sum(axis=1)
        amps = amps * np.where(crossings % 2, -1.0, 1.0)
    r, n_rows = _first_appearance_labels(occ[:, in_subset])
    c, n_cols = _first_appearance_labels(occ[:, ~in_subset])
    matrix = np.zeros((n_rows, n_cols), dtype=np.complex128)
    matrix[r, c] += amps
    singular = np.linalg.svd(matrix, compute_uv=False)
    probs = singular ** 2
    probs = probs[probs >= ENTROPY_CLAMP]
    return float(-np.sum(probs * np.log(probs)))


def cut_entropies(vector: np.ndarray, basis: Basis) -> Dict[str, float]:
    """Entanglement entropies across the leg cut (A | B) and the left-right
    cut, and the state's density shares on leg A and on the left half."""
    cells = basis.cells
    dens = site_density(vector, basis)
    left = left_half_sites(cells)
    return {"s_ab": entanglement_entropy(vector, basis, leg_sites(cells, "A")),
            "s_leftright": entanglement_entropy(vector, basis, left),
            "rho_a_frac": float(dens[:cells].sum() / basis.particles),
            "rho_left_frac": float(dens[left].sum() / basis.particles)}


@dataclass(frozen=True)
class Cluster:
    """A contiguous group of eigenvalues along the real axis.

    members are indices into the originating SpectrumResult, sorted by
    Re(E); representative is the member with the largest |Im(E)|."""

    members: Tuple[int, ...]
    re_range: Tuple[float, float]
    max_im: float
    representative: int
    label: str = "unclassified"

    @property
    def size(self) -> int:
        return len(self.members)


def default_min_gap(jl: float, jr: float) -> float:
    """Gap floor tied to the dominant hop scale: 0.1 max(|jl|, |jr|)."""
    return 0.1 * max(abs(jl), abs(jr))


def min_gap_for(params: ModelParams, min_gap: Optional[float]) -> float:
    """The min_gap every command clusters with: the given value, or, for
    None, default_min_gap(s, s) of the gauge-invariant hop scale
    s = sqrt(|jl_a jr_a| + |jl_b jr_b|), which the imaginary gauge and the
    leg swap leave alone; s is 1 at the reference amplitudes."""
    scale = math.sqrt(abs(params.jl_a * params.jr_a)
                      + abs(params.jl_b * params.jr_b))
    return default_min_gap(scale, scale) if min_gap is None else min_gap


def check_gaps(gap_factor: float, min_gap: Optional[float] = None) -> None:
    """Raise ValueError unless gap_factor is positive and min_gap, where
    given, non-negative (neither NaN); None stands for default_min_gap."""
    if not gap_factor > 0.0:
        raise ValueError(f"gap_factor must be positive, got {gap_factor}")
    if min_gap is not None and not min_gap >= 0.0:
        raise ValueError(f"min_gap must be non-negative, got {min_gap}")


def check_selector(selector: str) -> None:
    """Raise ValueError unless selector is one of SELECTORS."""
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {', '.join(SELECTORS)}, "
                         f"got {selector!r}")


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty array of finite floats, bit for bit, from a
    sort: np.median's NaN check imports numpy.ma."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def cluster_spectrum(result: SpectrumResult, gap_factor: float = 10.0, *,
                     min_gap: float) -> List[Cluster]:
    """Partition the spectrum into clusters separated by real-axis gaps
    larger than max(min_gap, gap_factor * median neighbor gap). min_gap has
    no default: select_clusters takes it from min_gap_for(params, ...), as
    every command does.

    Every eigenvalue index lands in exactly one cluster; clusters are
    returned ordered by Re(E). np.split cuts the indices, sorted by Re(E),
    after every gap above the threshold.
    """
    check_gaps(gap_factor, min_gap)
    ev = result.eigenvalues
    order = np.argsort(ev.real, kind="stable")
    gaps = np.diff(ev.real[order])
    median_gap = _median(gaps) if len(gaps) else 0.0
    threshold = max(min_gap, gap_factor * median_gap)
    breaks = np.flatnonzero(gaps > threshold)
    clusters = []
    for members in np.split(order, breaks + 1):
        res, ims = ev.real[members], ev.imag[members]
        rep = int(members[np.argmax(np.abs(ims))])
        clusters.append(Cluster(members=tuple(members.tolist()),
                                re_range=(float(res[0]), float(res[-1])),
                                max_im=float(ims.max()), representative=rep))
    return clusters


def bound_clusters(result: SpectrumResult, clusters: Sequence[Cluster],
                   pair_energy: float) -> List[bool]:
    """Whether each cluster belongs to the bound-pair band: the mean real
    energy of its members lies closer to pair_energy than to 0. With
    pair_energy 0 no cluster is bound."""
    centroids = [result.eigenvalues[list(c.members)].real.mean()
                 for c in clusters]
    return [bool(abs(x - pair_energy) < abs(x)) for x in centroids]


def select_clusters(result: SpectrumResult, params: ModelParams,
                    gap_factor: float = 10.0,
                    min_gap: Optional[float] = None) -> Dict[str, List[Cluster]]:
    """The cluster_spectrum clusters of result, with min_gap_for(params,
    min_gap), keyed by SELECTORS: "all" of them, then those bound_clusters
    puts in the pair band of params ("bound") and the rest ("scattering"),
    each ordered by Re(E). Sweeps, threshold searches and the effective
    model all split the spectrum here."""
    clusters = cluster_spectrum(result, gap_factor=gap_factor,
                                min_gap=min_gap_for(params, min_gap))
    bound = bound_clusters(result, clusters, params.pair_energy)
    return {"all": clusters,
            "scattering": [c for c, b in zip(clusters, bound) if not b],
            "bound": [c for c, b in zip(clusters, bound) if b]}


def _edge_weights(mean_density: np.ndarray, cells: int) -> Tuple[float, float]:
    window = max(1, math.ceil(cells * EDGE_FRACTION))
    total = mean_density.sum()
    if total <= 0.0:
        return 0.0, 0.0
    left = mean_density[:window].sum() + mean_density[cells:cells + window].sum()
    right = mean_density[cells - window:cells].sum() + mean_density[2 * cells - window:].sum()
    return float(left / total), float(right / total)


def _compose_label(ncor: float, left: float, right: float) -> str:
    if left >= BI_THRESHOLD and right >= BI_THRESHOLD:
        prefix = "Bi"
    elif left >= SIDE_THRESHOLD:
        prefix = "L"
    elif right >= SIDE_THRESHOLD:
        prefix = "R"
    else:
        prefix = ""
    if math.isnan(ncor):
        return "unclassified"
    if -DEAD_ZONE <= ncor <= 0.0 or abs(ncor - 2.0) <= DEAD_ZONE:
        return "unclassified"
    if ncor < -DEAD_ZONE:
        label = prefix + "S"
    elif ncor > 2.0 + DEAD_ZONE:
        label = prefix + "B"
    else:
        label = "mixed"
    return label if label in ALLOWED_LABELS else "unclassified"


def classify_cluster(cluster: Cluster, result: SpectrumResult,
                     basis: Basis) -> str:
    """Label one cluster from its mean density profile and the pair
    participation of its representative: label_clusters of this cluster.

    Prefix: Bi when both 25 percent edge windows hold at least 30 percent
    of the mean density, else L or R when one side holds at least 60
    percent. Suffix: S (scattering) for representative ncor below the dead
    zone [-DEAD_ZONE, 0], B (bound) above the dead zone 2 +/- DEAD_ZONE;
    values between give mixed, values inside a dead zone or without a valid
    prefix and suffix combination give unclassified. For particle numbers
    other than two the ncor signal is undefined and the label is
    unclassified.
    """
    return label_clusters(result, basis, [cluster])[0].label


def label_clusters(result: SpectrumResult, basis: Basis,
                   clusters: Sequence[Cluster]) -> List[Cluster]:
    """The given clusters of result (select_clusters), each labelled by the
    rule of classify_cluster. The mean density profiles come from one
    site_density_all pass over every eigenvector; the ncor of each
    representative is read from its own column."""
    dens = site_density_all(result.eigenvectors, basis)
    labelled = []
    for c in clusters:
        left, right = _edge_weights(dens[list(c.members)].mean(axis=0),
                                    basis.cells)
        ncor = (correlation_ncor(result.eigenvectors[:, c.representative],
                                 basis)
                if basis.particles == 2 else math.nan)
        labelled.append(replace(c, label=_compose_label(ncor, left, right)))
    return labelled
