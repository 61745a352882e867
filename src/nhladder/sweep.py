"""Parameter sweeps, size-transition thresholds, and diagonal-energy tables.

Sweep grids are row-major over one or two linear axes. Every grid point is
an independent job whose row depends on that point alone. Sweeps and
threshold searches run their solves on threads of this process, every
solve at one BLAS thread, so tables and thresholds do not depend on how
many solves run at once; per-point failures are recorded in the row's
error column instead of aborting the sweep. The max_im_per_cluster columns
and the threshold selectors split clusters into scattering and bound with
observables.bound_clusters.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import lapack
from .eig import check_eps_im, default_eps_im, eigendecompose
from .fock import enumerate_basis
from .model import (FLOAT_FIELDS, ModelParams, build_hamiltonian, diagonal_counts,
                    sector_basis)
from .observables import (OBSERVABLES, bound_clusters, cluster_spectrum,
                          correlation_ncor, cut_entropies, default_min_gap,
                          polarization)
# bound here for perfbench/tracing.py, which wraps these names in this module
from .observables import entanglement_entropy, site_density  # noqa: F401


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
                                 f"choose from {OBSERVABLES}")
        if not self.observables:
            raise ValueError("at least one observable is required")
        if self.eps_im is not None:
            check_eps_im(self.eps_im)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a rung-coupling threshold search. trace holds the
    (jp, max |Im|) pair of every solve in solve order, so evaluations ==
    len(trace)."""

    jp_star: float
    bracket: Tuple[float, float]
    eps_im: float
    evaluations: int
    used_fallback: bool = False
    trace: Tuple[Tuple[float, float], ...] = ()


def _grid_values(spec: SweepSpec) -> List[Tuple[float, ...]]:
    if len(spec.axes) == 1:
        return [(float(v),) for v in spec.axes[0].values()]
    outer, inner = spec.axes
    return [(float(a), float(b))
            for a in outer.values() for b in inner.values()]


def _point_params(spec: SweepSpec, values: Tuple[float, ...]) -> ModelParams:
    updates = {axis.name: v for axis, v in zip(spec.axes, values)}
    return spec.base.with_updates(**updates)


def _observable_columns(observables: Sequence[str]) -> List[str]:
    cols: List[str] = []
    for obs in observables:
        if obs == "max_im_global":
            cols.append("max_im_global")
        elif obs == "max_im_per_cluster":
            cols.extend(["max_im_scattering", "max_im_bound"])
        elif obs == "ncor_of_max_im_state":
            cols.append("ncor_of_max_im_state")
        elif obs == "polarization":
            cols.append("polarization")
        elif obs == "entropies":
            cols.extend(["s_ab", "s_leftright", "rho_a_frac", "rho_left_frac"])
        elif obs == "threshold":
            cols.append("jp_star")
    return cols


def _peaks_by_group(result, params: ModelParams, gap_factor: float,
                    min_gap: float) -> Dict[str, List[float]]:
    """Max |Im E| of each cluster, split into scattering and bound."""
    clusters = cluster_spectrum(result, gap_factor=gap_factor, min_gap=min_gap)
    bound = bound_clusters(result, clusters, params.pair_energy)
    peaks: Dict[str, List[float]] = {"scattering": [], "bound": []}
    for c, is_bound in zip(clusters, bound):
        peak = abs(float(result.eigenvalues[c.representative].imag))
        peaks["bound" if is_bound else "scattering"].append(peak)
    return peaks


def _evaluate_point(spec: SweepSpec, values: Tuple[float, ...],
                    capacity: Optional[int]) -> Dict:
    row: Dict = {axis.name: v for axis, v in zip(spec.axes, values)}
    for col in _observable_columns(spec.observables):
        row[col] = math.nan
    row["error"] = ""
    try:
        params = _point_params(spec, values)
        basis = sector_basis(params, capacity=capacity)
        result = eigendecompose(build_hamiltonian(params, basis),
                                capacity=capacity)
        min_gap = (spec.min_gap if spec.min_gap is not None
                   else default_min_gap(params.jl_a, params.jr_a))
        top = int(np.argmax(np.abs(result.eigenvalues.imag)))
        vec = result.eigenvectors[:, top]
        for obs in spec.observables:
            if obs == "max_im_global":
                row["max_im_global"] = float(np.max(np.abs(result.eigenvalues.imag)))
            elif obs == "max_im_per_cluster":
                peaks = _peaks_by_group(result, params, spec.gap_factor,
                                        min_gap)
                for name, group in peaks.items():
                    row[f"max_im_{name}"] = max(group, default=math.nan)
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
                            spec.gap_factor, spec.min_gap, capacity, lanes=1)
                row["jp_star"] = t.jp_star
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
    success). The points are solved sweep_lanes(workers) at a time on
    threads, two on two cores with workers == 1. Every solve runs at one
    BLAS thread, and a threshold search inside a point solves one jp at a
    time, so the table does not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _lanes(sweep_lanes(workers)) as run:
        return list(run(lambda values: _evaluate_point(spec, values, capacity),
                        _grid_values(spec)))


def _max_im_for_selector(result, params: ModelParams, selector: str,
                         gap_factor: float, min_gap: float) -> float:
    if selector == "all":
        return float(np.max(np.abs(result.eigenvalues.imag)))
    if selector not in ("scattering", "bound"):
        raise ValueError(f"cluster_selector must be 'all', 'scattering', or "
                         f"'bound', got {selector!r}")
    peaks = _peaks_by_group(result, params, gap_factor, min_gap)
    return max(peaks[selector], default=0.0)


def find_threshold_jp(params: ModelParams, cluster_selector: str = "all",
                      eps_im: Optional[float] = None,
                      bracket: Tuple[float, float] = (0.0, 0.1),
                      resolution: float = 1e-3,
                      gap_factor: float = 10.0,
                      min_gap: Optional[float] = None,
                      capacity: Optional[int] = None) -> ThresholdResult:
    """Locate the rung coupling where the selected part of the spectrum
    turns complex (max |Im| exceeds eps_im).

    A five-point pre-scan checks that the indicator crosses eps_im once and
    stays above; if so, bisection narrows the bracket to the requested
    resolution and jp_star is its upper end. A non-monotone pre-scan falls
    back to a full scan at the resolution step and returns the first
    crossing. Raises ValueError when the bracket does not actually bracket
    a crossing, or when eps_im is negative or NaN.

    Solves run on lapack.solve_lanes() threads at one BLAS thread each, as
    inside a sweep; the pool size is restored afterwards. With two lanes the
    pre-scan solves lo and hi together and then its three inner points;
    each bisection round also solves the next round's midpoint on the side
    where linear interpolation of the indicator puts the crossing; the
    fallback scan solves its grid two points at a time.
    The answer does not depend on the lanes; evaluations and trace count
    every solve, speculative ones included.
    """
    return _search(params, cluster_selector, eps_im, bracket, resolution,
                   gap_factor, min_gap, capacity, lapack.solve_lanes())


def _search(params: ModelParams, cluster_selector: str,
            eps_im: Optional[float], bracket: Tuple[float, float],
            resolution: float, gap_factor: float, min_gap: Optional[float],
            capacity: Optional[int], lanes: int) -> ThresholdResult:
    """find_threshold_jp with `lanes` solves at once."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if eps_im is not None:
        check_eps_im(eps_im)
    basis = sector_basis(params, capacity=capacity)
    if min_gap is None:
        min_gap = default_min_gap(params.jl_a, params.jr_a)

    def solve(jp: float) -> Tuple[float, float]:
        p = params.with_updates(jp=jp)
        result = eigendecompose(build_hamiltonian(p, basis), capacity=capacity)
        return (_max_im_for_selector(result, p, cluster_selector, gap_factor,
                                     min_gap), result.matrix_norm)

    cache: Dict[float, float] = {}
    trace: List[Tuple[float, float]] = []
    eps = eps_im

    with _lanes(lanes) as run:

        def measure(*points: float) -> Iterator[float]:
            """The indicator at each point, in order; the points not yet
            solved are solved together, and eps is set by the first solve."""
            nonlocal eps
            solved = run(solve, [jp for jp in dict.fromkeys(points)
                                 if jp not in cache])
            for jp in points:
                if jp not in cache:
                    value, norm = next(solved)
                    if eps is None:
                        eps = default_eps_im(norm)
                    cache[jp] = value
                    trace.append((jp, value))
                yield cache[jp]

        def result(jp_star: float, below: float, fallback: bool = False):
            return ThresholdResult(jp_star=jp_star, bracket=(below, jp_star),
                                   eps_im=eps, evaluations=len(trace),
                                   used_fallback=fallback, trace=tuple(trace))

        ends = measure(lo, hi)
        f_lo = next(ends)
        if f_lo > eps:
            raise ValueError(f"invalid bracket: spectrum already complex at "
                             f"jp={lo} (max |Im| = {f_lo:.3e} > {eps:.3e})")
        f_hi = next(ends)
        if f_hi <= eps:
            raise ValueError(f"invalid bracket: spectrum still real at "
                             f"jp={hi} (max |Im| = {f_hi:.3e} <= {eps:.3e})")

        scan = [float(jp) for jp in np.linspace(lo, hi, 5)]
        above = [value > eps for value in measure(*scan)]
        first_above = above.index(True)

        if all(above[first_above:]):
            b_lo, b_hi = scan[first_above - 1], scan[first_above]
            while b_hi - b_lo > resolution:
                mid = 0.5 * (b_lo + b_hi)
                points = [mid]
                if lanes > 1 and mid not in cache:
                    at_lo, at_hi = cache[b_lo], cache[b_hi]
                    guess = b_lo + (eps - at_lo) * (b_hi - b_lo) / (at_hi - at_lo)
                    q_lo, q_hi = (b_lo, mid) if guess < mid else (mid, b_hi)
                    if q_hi - q_lo > resolution:
                        points.append(0.5 * (q_lo + q_hi))
                if list(measure(*points))[0] > eps:
                    b_hi = mid
                else:
                    b_lo = mid
            return result(b_hi, b_lo)

        steps = max(1, int(math.ceil((hi - lo) / resolution)))
        grid = [lo + k * (hi - lo) / steps for k in range(steps + 1)]
        prev = lo
        for start in range(1, len(grid), lanes):
            chunk = grid[start:start + lanes]
            for jp, value in zip(chunk, list(measure(*chunk))):
                if value > eps:
                    return result(jp, prev, fallback=True)
                prev = jp
    raise ValueError("fallback scan found no crossing inside the bracket")


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
                crossings.append({"class_i": i, "class_j": j,
                                  "mu_star": mu_star,
                                  "order": abs(d_i - d_j) // 2,
                                  "e_at_crossing": classes[i]["e_int"]
                                  + d_i * mu_star})
    crossings.sort(key=lambda r: (r["mu_star"], r["class_i"], r["class_j"]))
    return EonsiteTable(classes=classes, crossings=crossings)
