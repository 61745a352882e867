"""Parameter sweeps, size-transition thresholds, and diagonal-energy tables.

Sweep grids are row-major over one or two linear axes. Every grid point is
an independent job whose row depends on that point alone. Sweeps and
threshold searches run their solves on threads of this process, every
solve at one BLAS thread, so tables and thresholds do not depend on how
many solves run at once; per-point failures are recorded in the row's
error column instead of aborting the sweep, except MemoryError, which
stops it. The max_im_per_cluster columns and the threshold selectors split
clusters into scattering and bound with observables.select_clusters.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import lapack
from .eig import check_eps_im, default_eps_im, eigendecompose
from .fock import enumerate_basis
from .model import (FLOAT_FIELDS, ModelParams, SectorPlan, diagonal_counts,
                    sector_basis)
# bound here for perfbench/tracing.py; solves assemble through a SectorPlan
from .model import build_hamiltonian  # noqa: F401
from .observables import (OBSERVABLES, check_gaps, check_selector,
                          correlation_ncor, cut_entropies, left_half_sites,
                          polarization, select_clusters)
# bound here for perfbench/tracing.py, which wraps these names in this module
from .observables import (cluster_spectrum, entanglement_entropy,  # noqa: F401
                          site_density)


@dataclass(frozen=True)
class Axis:
    """One linear sweep axis over a model parameter."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in FLOAT_FIELDS:
            raise ValueError(f"axis name must be one of {FLOAT_FIELDS}, "
                             f"got {self.name!r}")
        if self.points < 1:
            raise ValueError(f"axis needs at least one point, got {self.points}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis endpoints must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request: base parameters, one or two axes, observables."""

    base: ModelParams
    axes: Tuple[Axis, ...]
    observables: Tuple[str, ...] = ("max_im_global",)
    eps_im: Optional[float] = None
    gap_factor: float = 10.0
    min_gap: Optional[float] = None
    threshold_selector: str = "all"
    threshold_bracket: Tuple[float, float] = (0.0, 0.1)
    threshold_resolution: float = 1e-3

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(f"sweeps take one or two axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis name in {names}")
        for obs in self.observables:
            if obs not in OBSERVABLES:
                raise ValueError(f"unknown observable {obs!r}; "
                                 f"choose from {tuple(OBSERVABLES)}")
        if not self.observables:
            raise ValueError("at least one observable is required")
        if self.eps_im is not None:
            check_eps_im(self.eps_im)
        check_gaps(self.gap_factor, self.min_gap)
        check_selector(self.threshold_selector)
        if "threshold" in self.observables:
            _check_bracket(self.threshold_bracket, self.threshold_resolution)
            # particles is never an axis; a zero pair energy, which an axis
            # over u or u_nn can reach, stays a per-point error
            if self.threshold_selector == "bound" and self.base.particles < 2:
                raise ValueError(f"selector 'bound' needs N >= 2 particles, "
                                 f"got N={self.base.particles}")
        if "entropies" in self.observables:
            left_half_sites(self.base.cells)  # cells is never an axis


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a rung-coupling threshold search. trace holds the
    (jp, max |Im|) pair of every solve in solve order, so evaluations ==
    len(trace)."""

    jp_star: float
    bracket: Tuple[float, float]
    eps_im: float
    evaluations: int
    trace: Tuple[Tuple[float, float], ...] = ()


def _grid_values(spec: SweepSpec) -> List[Tuple[float, ...]]:
    return list(itertools.product(*(map(float, a.values())
                                    for a in spec.axes)))


def _point_params(spec: SweepSpec, values: Tuple[float, ...]) -> ModelParams:
    updates = {axis.name: v for axis, v in zip(spec.axes, values)}
    return spec.base.with_updates(**updates)


def _observable_columns(observables: Sequence[str]) -> List[str]:
    return [col for obs in observables for col in OBSERVABLES[obs]]


def _evaluate_point(spec: SweepSpec, values: Tuple[float, ...],
                    plan: SectorPlan, capacity: Optional[int]) -> Dict:
    row: Dict = {axis.name: v for axis, v in zip(spec.axes, values)}
    for col in _observable_columns(spec.observables):
        row[col] = math.nan
    row["error"] = ""
    basis = plan.basis
    try:
        params = _point_params(spec, values)
        # the threshold search solves its own jp values; the point's own
        # spectrum is solved only for the other observables
        if set(spec.observables) != {"threshold"}:
            result = eigendecompose(plan.operator(params), capacity=capacity)
            top = int(np.argmax(np.abs(result.eigenvalues.imag)))
            vec = result.eigenvectors[:, top]
        for obs in spec.observables:
            if obs == "max_im_global":
                row["max_im_global"] = float(np.max(np.abs(result.eigenvalues.imag)))
            elif obs == "max_im_per_cluster":
                groups = select_clusters(result, params, spec.gap_factor,
                                         spec.min_gap)
                for name in ("scattering", "bound"):
                    row[f"max_im_{name}"] = max(
                        (c.max_im for c in groups[name]), default=math.nan)
            elif obs == "ncor_of_max_im_state":
                if params.particles == 2:
                    row["ncor_of_max_im_state"] = correlation_ncor(vec, basis)
            elif obs == "polarization":
                row["polarization"] = polarization(vec, basis)
            elif obs == "entropies":
                row.update(cut_entropies(vec, basis))
            elif obs == "threshold":
                t = _search(params, spec.threshold_selector, spec.eps_im,
                            spec.threshold_bracket, spec.threshold_resolution,
                            spec.gap_factor, spec.min_gap, plan, capacity,
                            lanes=1)
                row["jp_star"] = t.jp_star
    except MemoryError:
        raise  # no later point would fit either
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep_lanes(workers: int) -> int:
    """Solves a sweep runs at once: workers, and never fewer than
    lapack.solve_lanes()."""
    return max(workers, lapack.solve_lanes())


@contextmanager
def _lanes(lanes: int) -> Iterator[Callable]:
    """A map that runs up to `lanes` calls at once on threads, with OpenBLAS
    at one thread for the block; the previous count is restored after."""
    with lapack.threads(1), ThreadPoolExecutor(max_workers=lanes) as pool:
        yield pool.map if lanes > 1 else map


def run_sweep(spec: SweepSpec, workers: int = 1,
              capacity: Optional[int] = None) -> List[Dict]:
    """Evaluate the sweep grid and return one row dict per point, row-major.

    Rows carry the axis values, the requested observable columns, and an
    error column that holds the exception tag for failed points (empty on
    success). Axes vary float fields only, so every point shares the
    sector of spec.base: it is enumerated once, before any solve, into one
    model.SectorPlan that assembles every point's Hamiltonian, and a
    sector over the capacity raises CapacityError instead of failing every
    point; a point that raises MemoryError stops the sweep. The points are
    solved sweep_lanes(workers) at a time on threads, two on two cores with
    workers == 1. Every solve runs at one BLAS thread, and a threshold
    search inside a point solves one jp at a time, so the table does not
    depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plan = SectorPlan(sector_basis(spec.base, capacity=capacity))
    with _lanes(sweep_lanes(workers)) as run:
        return list(run(lambda values: _evaluate_point(spec, values, plan,
                                                       capacity),
                        _grid_values(spec)))


def _selected(result, params: ModelParams, selector: str, gap_factor: float,
              min_gap: Optional[float]) -> np.ndarray:
    """Indices of the eigenvalues of result in the selector's clusters
    (observables.select_clusters), every index for "all"."""
    if selector == "all":
        return np.arange(result.dimension)
    clusters = select_clusters(result, params, gap_factor, min_gap)[selector]
    return np.array([i for c in clusters for i in c.members], dtype=np.intp)


def _max_im_for_selector(result, params: ModelParams, selector: str,
                         gap_factor: float, min_gap: Optional[float]) -> float:
    """max |Im| over the _selected eigenvalues, 0 where none is selected.
    Clusters are closed under conjugation, so this is the largest max_im
    of the selected clusters."""
    members = _selected(result, params, selector, gap_factor, min_gap)
    return float(np.abs(result.eigenvalues.imag[members]).max(initial=0.0))


def find_threshold_jp(params: ModelParams, cluster_selector: str = "all",
                      eps_im: Optional[float] = None,
                      bracket: Tuple[float, float] = (0.0, 0.1),
                      resolution: float = 1e-3,
                      gap_factor: float = 10.0,
                      min_gap: Optional[float] = None,
                      capacity: Optional[int] = None) -> ThresholdResult:
    """Locate the rung coupling where the selected part of the spectrum
    turns complex (max |Im| exceeds eps_im).

    The bracket is a search window whose spectrum must be real at lo. The
    search runs in rounds, each by one rule: it solves its samples in
    order, up to the first that is complex, and narrows to that first
    sampled crossing. The first round samples five points over the window,
    so hi is solved only where the three inner points are real; each later
    round samples the narrowed bracket and its midpoint, until the bracket
    is at most resolution wide; jp_star is its upper end. A complex window
    that falls between two solved points is missed. Raises ValueError when
    the spectrum is complex at lo or real at all five points, or, before
    the sector is enumerated, when twice a bracket end is not finite, the
    ends are not lo < hi, resolution is below the spacing of doubles at
    the bracket ends (math.ulp), where bisection would never end, eps_im is
    negative or NaN, gap_factor or min_gap is out of range
    (observables.check_gaps), cluster_selector is not one of
    observables.SELECTORS, or it is "bound" with fewer than two particles
    or zero pair energy, where observables.select_clusters finds no cluster
    bound.

    Solves run on lapack.solve_lanes() threads at one BLAS thread each, as
    inside a sweep; the pool size is restored afterwards. A round solves
    its new points lanes at a time and stops after the first step with a
    complex one. With a spare lane it also solves one point ahead, after
    its samples: in the first round the midpoint of the last inner point
    and hi, beside hi; in each later round the next round's midpoint on the
    side where linear interpolation of the indicator puts the crossing. A
    round with no new point solves nothing. The answer does not depend on
    the lanes; evaluations and trace count every solve, speculative ones
    included. Every solve assembles its Hamiltonian from one
    model.SectorPlan of the sector. With every selector each solve
    computes eigenvalues only and verifies the eigenpair that decides
    max |Im| over the selected clusters (eig.eigendecompose with reads),
    in the band order every operator of the plan carries.
    """
    _check_bracket(bracket, resolution)
    if eps_im is not None:
        check_eps_im(eps_im)
    check_gaps(gap_factor, min_gap)
    check_selector(cluster_selector)
    _check_bound(params, cluster_selector)
    return _search(params, cluster_selector, eps_im, bracket, resolution,
                   gap_factor, min_gap,
                   SectorPlan(sector_basis(params, capacity=capacity)),
                   capacity, lapack.solve_lanes())


def _check_bound(params: ModelParams, cluster_selector: str) -> None:
    """Raises ValueError for selector 'bound' where no cluster can be bound:
    fewer than two particles or a zero pair energy."""
    if cluster_selector == "bound" and (params.particles < 2
                                        or params.pair_energy == 0.0):
        raise ValueError(f"selector 'bound' needs N >= 2 particles and a "
                         f"nonzero pair energy, got N={params.particles}, "
                         f"pair energy {params.pair_energy}")


def _check_bracket(bracket: Tuple[float, float], resolution: float) -> None:
    """Raises ValueError unless twice each end is finite, so that every
    width, midpoint and step of the search is too, lo < hi and the
    resolution is at least the spacing of doubles at the ends (math.ulp),
    below which bisection never ends."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(2 * lo) and math.isfinite(2 * hi)):
        raise ValueError(f"bracket ends must be finite, and so must twice "
                         f"each, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"bracket must be (lo, hi) with lo < hi, "
                         f"got ({lo}, {hi})")
    spacing = math.ulp(max(abs(lo), abs(hi)))
    if not resolution >= spacing:
        raise ValueError(f"resolution must be at least {spacing:.3g}, the "
                         f"spacing of doubles at the bracket, got {resolution}")


def _search(params: ModelParams, cluster_selector: str,
            eps_im: Optional[float], bracket: Tuple[float, float],
            resolution: float, gap_factor: float, min_gap: Optional[float],
            plan: SectorPlan, capacity: Optional[int],
            lanes: int) -> ThresholdResult:
    """find_threshold_jp on the sector of `plan`, with `lanes` solves at
    once, for a request already checked: by find_threshold_jp, or by
    SweepSpec but for the pair energy, which a sweep axis can move."""
    lo, hi = float(bracket[0]), float(bracket[1])
    _check_bound(params, cluster_selector)

    def solve(jp: float) -> Tuple[float, float]:
        p = params.with_updates(jp=jp)
        selection = (p, cluster_selector, gap_factor, min_gap)
        result = eigendecompose(plan.operator(p), capacity=capacity,
                                reads=lambda r: _selected(r, *selection))
        return _max_im_for_selector(result, *selection), result.matrix_norm

    cache: Dict[float, float] = {}  # jp -> indicator, in solve order
    eps = eps_im
    # every round solves its samples and then its point ahead, the ones not
    # yet solved, in order and lanes at a time, up to the first step with a
    # complex one, and narrows to its first sampled crossing. The first
    # round samples five points over the window and looks ahead to the
    # midpoint of (last inner, hi)
    samples = [float(jp) for jp in np.linspace(lo, hi, 5)]
    ahead = ([0.5 * (samples[3] + hi)]
             if lanes > 1 and hi - samples[3] > resolution else [])
    with _lanes(lanes) as run:
        while True:
            new = [jp for jp in dict.fromkeys(samples + ahead)
                   if jp not in cache]
            for i in range(0, len(new), lanes):
                step = new[i:i + lanes]
                for jp, (value, norm) in zip(step, run(solve, step)):
                    if eps is None:  # set by the first solve
                        eps = default_eps_im(norm)
                    cache[jp] = value
                if any(cache[jp] > eps for jp in step):
                    break
            if cache[lo] > eps:  # lo is in the first round's first step
                raise ValueError(f"invalid bracket: spectrum already complex "
                                 f"at jp={lo} (max |Im| = {cache[lo]:.3e} > "
                                 f"{eps:.3e})")
            above = [jp in cache and cache[jp] > eps for jp in samples]
            if True not in above:
                raise ValueError(f"invalid bracket: spectrum still real at "
                                 f"{len(samples)} points from jp={lo} to "
                                 f"jp={hi} (max |Im| <= {eps:.3e})")
            first = above.index(True)  # >= 1: samples[0] is real
            b_lo, b_hi = samples[first - 1], samples[first]
            if b_hi - b_lo <= resolution:
                return ThresholdResult(jp_star=b_hi, bracket=(b_lo, b_hi),
                                       eps_im=eps, evaluations=len(cache),
                                       trace=tuple(cache.items()))
            # the midpoint of the last narrowing, and with a spare lane the
            # next one on the side where linear interpolation puts the crossing
            mid = 0.5 * (b_lo + b_hi)
            samples, ahead = [b_lo, mid, b_hi], []
            if lanes > 1 and mid not in cache:
                at_lo, at_hi = cache[b_lo], cache[b_hi]
                guess = b_lo + (eps - at_lo) * (b_hi - b_lo) / (at_hi - at_lo)
                q_lo, q_hi = (b_lo, mid) if guess < mid else (mid, b_hi)
                if q_hi - q_lo > resolution:
                    ahead = [0.5 * (q_lo + q_hi)]


# the columns of an EonsiteTable crossing row, in order
CROSSING_COLUMNS = ("class_i", "class_j", "mu_star", "order", "e_at_crossing")


@dataclass(frozen=True)
class EonsiteTable:
    """Diagonal-energy classification: one row per (interaction quanta,
    leg imbalance) class, and one row per pairwise level crossing inside
    the scanned mu window."""

    classes: List[Dict] = field(default_factory=list)
    crossings: List[Dict] = field(default_factory=list)


def eonsite_table(params: ModelParams, mu_range: Tuple[float, float],
                  capacity: Optional[int] = None) -> EonsiteTable:
    """Classify basis states by diagonal energy E(mu) = e_int + delta_n mu
    and list all class crossings with mu inside mu_range.

    Bosons group by on-site pair count (e_int = u * pairs), fermions by
    same-leg adjacency count (e_int = u_nn * adjacency); delta_n is
    N_A - N_B. The crossing order is |delta_n_i - delta_n_j| / 2, the
    number of rung moves connecting the classes. Supports up to four
    particles.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not lo <= hi:
        raise ValueError(f"mu_range must satisfy lo <= hi, got ({lo}, {hi})")
    if params.particles > 4:
        raise ValueError(f"eonsite_table supports up to 4 particles, "
                         f"got {params.particles}")
    basis = enumerate_basis(params.cells, params.particles, params.statistics,
                            capacity=capacity)
    quanta, imbalance = diagonal_counts(basis.occupations, params.statistics)
    keys, populations = np.unique(np.column_stack([quanta, imbalance]), axis=0,
                                  return_counts=True)
    scale = params.pair_energy
    quanta_name = "pairs" if params.statistics == "boson" else "adjacency"
    classes = []
    for class_id, ((count, delta), population) in enumerate(
            zip(keys.tolist(), populations.tolist())):
        classes.append({"class_id": class_id,
                        quanta_name: count,
                        "delta_n": delta,
                        "e_int": scale * count,
                        "population": population})

    crossings = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            d_i, d_j = classes[i]["delta_n"], classes[j]["delta_n"]
            if d_i == d_j:
                continue
            mu_star = (classes[i]["e_int"] - classes[j]["e_int"]) / (d_j - d_i)
            if lo <= mu_star <= hi:
                crossings.append(dict(zip(CROSSING_COLUMNS, (
                    i, j, mu_star, abs(d_i - d_j) // 2,
                    classes[i]["e_int"] + d_i * mu_star))))
    crossings.sort(key=lambda r: (r["mu_star"], r["class_i"], r["class_j"]))
    return EonsiteTable(classes=classes, crossings=crossings)
