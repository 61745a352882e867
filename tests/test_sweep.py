import contextlib
import math
import tracemalloc
import types

import numpy as np
import pytest

import nhladder.sweep as sweep_mod
from nhladder import lapack
from nhladder.eig import default_eps_im, eigendecompose
from nhladder.model import ModelParams, build_hamiltonian, sector_basis
from nhladder.observables import OBSERVABLES, cluster_spectrum
from nhladder.sweep import (Axis, EonsiteTable, SweepSpec, ThresholdResult,
                            eonsite_table, find_threshold_jp, run_sweep)


def small_spec(**kwargs):
    base = ModelParams(cells=3, particles=2, u=4.0, mu=0.2)
    defaults = dict(base=base,
                    axes=(Axis("jp", 0.0, 0.05, 3),),
                    observables=("max_im_global", "max_im_per_cluster",
                                 "ncor_of_max_im_state", "polarization"))
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_axis_values_and_validation():
    axis = Axis("jp", 0.0, 1.0, 5)
    assert np.allclose(axis.values(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        Axis("cells", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("jp", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Axis("jp", 0.0, math.inf, 5)


def test_spec_validation():
    base = ModelParams(cells=2, particles=2, u=1.0)
    with pytest.raises(ValueError):
        SweepSpec(base=base, axes=())
    with pytest.raises(ValueError):
        SweepSpec(base=base, axes=(Axis("jp", 0, 1, 2), Axis("mu", 0, 1, 2),
                                   Axis("u", 0, 1, 2)))
    with pytest.raises(ValueError):
        SweepSpec(base=base, axes=(Axis("jp", 0, 1, 2), Axis("jp", 0, 1, 2)))
    with pytest.raises(ValueError):
        SweepSpec(base=base, axes=(Axis("jp", 0, 1, 2),),
                  observables=("spin",))
    with pytest.raises(ValueError, match="at least one observable"):
        SweepSpec(base=base, axes=(Axis("jp", 0, 1, 2),), observables=())


def test_rows_are_row_major():
    spec = small_spec(axes=(Axis("u", 4.0, 5.0, 2), Axis("mu", 0.0, 0.2, 3)),
                      observables=("max_im_global",))
    rows = run_sweep(spec)
    assert [(r["u"], round(r["mu"], 10)) for r in rows] == [
        (4.0, 0.0), (4.0, 0.1), (4.0, 0.2),
        (5.0, 0.0), (5.0, 0.1), (5.0, 0.2)]
    for r in rows:
        assert r["error"] == ""
        assert math.isfinite(r["max_im_global"])


def test_serial_and_parallel_tables_identical():
    spec = small_spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert len(serial) == len(parallel) == 3
    for a, b in zip(serial, parallel):
        assert a.keys() == b.keys()
        for key in a:
            va, vb = a[key], b[key]
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb  # bit-identical


def test_rerun_is_deterministic():
    spec = small_spec()
    assert run_sweep(spec) == run_sweep(spec)


def test_per_point_errors_are_tagged():
    base = ModelParams(cells=2, particles=2, statistics="fermion", u_nn=1.0)
    spec = SweepSpec(base=base, axes=(Axis("u", 0.0, 1.0, 2),),
                     observables=("max_im_global",))
    rows = run_sweep(spec)
    assert rows[0]["error"] == ""  # u = 0 is legal for fermions
    assert rows[1]["error"].startswith("ValueError")
    assert math.isnan(rows[1]["max_im_global"])


def test_cluster_columns_track_scattering_and_bound():
    base = ModelParams(cells=6, particles=2, jp=0.01, mu=0.2, u=4.0)
    spec = SweepSpec(base=base, axes=(Axis("u", 4.0, 8.0, 2),),
                     observables=("max_im_per_cluster",))
    rows = run_sweep(spec)
    for row in rows:
        assert row["error"] == ""
        assert math.isfinite(row["max_im_scattering"])
        assert math.isfinite(row["max_im_bound"])
    # at u = 8 the bound band is real while scattering stays complex
    assert rows[1]["max_im_bound"] <= 1e-10
    assert rows[1]["max_im_scattering"] >= 0.0


def test_cluster_columns_split_each_point_on_its_own():
    # the sweep starts with u inside the scattering continuum; the bound
    # band that splits off at larger u must still be reported there
    base = ModelParams(cells=6, particles=2, jp=0.01, mu=0.2)
    spec = SweepSpec(base=base, axes=(Axis("u", 0.0, 8.0, 5),),
                     observables=("max_im_per_cluster",))
    for row in run_sweep(spec):
        params = base.with_updates(u=row["u"])
        result = eigendecompose(build_hamiltonian(params, sector_basis(params)))
        peaks = {"scattering": [], "bound": []}
        for c in cluster_spectrum(result, min_gap=0.1):
            ev = result.eigenvalues[list(c.members)]
            centroid = ev.real.mean()
            bound = abs(centroid - params.u) < abs(centroid)
            peaks["bound" if bound else "scattering"].append(
                float(np.max(np.abs(ev.imag))))
        for name, group in peaks.items():
            np.testing.assert_equal(row[f"max_im_{name}"],
                                    max(group, default=math.nan))
        if row["u"] >= 4.0:
            assert row["max_im_bound"] == 0.0


def test_entropy_columns():
    base = ModelParams(cells=4, particles=2, jp=0.05, mu=0.1, u=4.0)
    spec = SweepSpec(base=base, axes=(Axis("jp", 0.01, 0.05, 2),),
                     observables=("entropies",))
    rows = run_sweep(spec)
    for row in rows:
        assert row["error"] == ""
        for col in ("s_ab", "s_leftright", "rho_a_frac", "rho_left_frac"):
            assert math.isfinite(row[col])
        assert 0.0 <= row["rho_a_frac"] <= 1.0
        assert 0.0 <= row["rho_left_frac"] <= 1.0


def test_row_columns_are_those_observables_declares():
    # each observable fills exactly its declared columns, in request order
    names = list(reversed(OBSERVABLES))
    rows = run_sweep(small_spec(observables=tuple(names),
                                threshold_bracket=(0.0, 0.3),
                                threshold_resolution=0.05))
    assert list(rows[0]) == ["jp", *(col for name in names
                                     for col in OBSERVABLES[name]), "error"]
    assert all(list(row) == list(rows[0]) and row["error"] == ""
               for row in rows)


def test_ncor_column_is_nan_for_other_particle_numbers():
    base = ModelParams(cells=3, particles=1)
    spec = SweepSpec(base=base, axes=(Axis("jp", 0.0, 0.1, 2),),
                     observables=("ncor_of_max_im_state",))
    rows = run_sweep(spec)
    assert all(math.isnan(r["ncor_of_max_im_state"]) for r in rows)
    assert all(r["error"] == "" for r in rows)


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(small_spec(), workers=0)


# ---------------------------------------------------------------------------
# threshold search

def _max_im_at(params, jp):
    basis = sector_basis(params)
    r = eigendecompose(build_hamiltonian(params.with_updates(jp=jp), basis))
    return float(np.max(np.abs(r.eigenvalues.imag)))


def test_threshold_single_particle_bisection():
    p = ModelParams(cells=8, particles=1)
    result = find_threshold_jp(p, bracket=(0.0, 0.2), resolution=1e-3)
    assert isinstance(result, ThresholdResult)
    lo, hi = result.bracket
    assert hi - lo <= 1e-3 + 1e-12
    assert result.jp_star == hi
    assert 0.0 < result.jp_star < 0.2
    # verify the bracket property against direct diagonalization
    assert _max_im_at(p, lo) <= result.eps_im
    assert _max_im_at(p, hi) > result.eps_im


def test_threshold_decreases_with_system_size():
    # longer ladders turn complex at weaker rung coupling
    t8 = find_threshold_jp(ModelParams(cells=8, particles=1),
                           bracket=(0.0, 0.2), resolution=1e-3)
    t12 = find_threshold_jp(ModelParams(cells=12, particles=1),
                            bracket=(0.0, 0.2), resolution=1e-3)
    assert t12.jp_star < t8.jp_star


def test_threshold_invalid_bracket(monkeypatch):
    p = ModelParams(cells=8, particles=1)
    with pytest.raises(ValueError):
        find_threshold_jp(p, bracket=(0.15, 0.2))  # complex at both ends
    with pytest.raises(ValueError):
        find_threshold_jp(p, bracket=(0.0, 1e-6))  # real at both ends

    def no_solve(*args, **kwargs):
        raise AssertionError("enumerated the sector or solved before the "
                             "request was checked")

    # checked before the sector is enumerated; 1e-20 is below the spacing
    # of doubles at 0.2, where bisection stalls
    monkeypatch.setattr(sweep_mod, "sector_basis", no_solve)
    monkeypatch.setattr(sweep_mod, "eigendecompose", no_solve)
    for bracket in ((0.2, 0.1), (0.1, 0.1)):
        with pytest.raises(ValueError, match="bracket must be"):
            find_threshold_jp(p, bracket=bracket)
    for resolution in (0.0, float("nan"), 1e-20):
        with pytest.raises(ValueError):
            find_threshold_jp(p, bracket=(0.0, 0.2), resolution=resolution)
    # an infinite end, where the spacing of doubles is infinite too, and
    # finite ends whose width or midpoint overflows
    for bracket, resolution in (((0.0, math.inf), math.inf),
                                ((-math.inf, 0.2), 1e-3),
                                ((-1e308, 1e308), 1e300),
                                ((1e308, 1.7e308), 1e300)):
        with pytest.raises(ValueError, match="bracket ends must be finite"):
            find_threshold_jp(p, bracket=bracket, resolution=resolution)
    with pytest.raises(ValueError):
        find_threshold_jp(p, cluster_selector="everything")


def _reentrant_indicator(result, params, selector, gap_factor, min_gap):
    jp = params.jp
    return 1.0 if (0.04 < jp < 0.06) or jp > 0.17 else 0.0


def test_threshold_fallback_on_nonmonotone_indicator(monkeypatch):
    # a reentrant complex bubble inside the bracket: every round narrows to
    # its first sampled crossing, so the search returns the bubble's lower
    # edge, not the later monotone rise
    monkeypatch.setattr(sweep_mod, "_max_im_for_selector",
                        _reentrant_indicator)
    monkeypatch.setattr(lapack, "solve_lanes", lambda: 1)
    p = ModelParams(cells=2, particles=1)
    result = find_threshold_jp(p, eps_im=0.5, bracket=(0.0, 0.2),
                               resolution=0.01)
    lo, hi = result.bracket
    assert lo <= 0.04 < hi == result.jp_star
    assert hi - lo <= 0.01
    # 0.0 and 0.05, where the first round stops, then three midpoints
    assert result.evaluations == len(result.trace) == 5


def test_fallback_scan_memory_does_not_grow_with_resolution(monkeypatch):
    # a crossing right after lo at resolution 1e-6 is found in a logarithmic
    # number of solves, holding no grid of the 200001 jp values at that step
    def crossing_at_once(result, params, selector, gap_factor, min_gap):
        jp = params.jp
        return 1.0 if 0.0 < jp < 0.03 or 0.04 < jp < 0.06 or jp > 0.17 else 0.0

    monkeypatch.setattr(sweep_mod, "_max_im_for_selector", crossing_at_once)
    monkeypatch.setattr(lapack, "solve_lanes", lambda: 2)
    p = ModelParams(cells=2, particles=1)
    tracemalloc.start()
    try:
        result = find_threshold_jp(p, eps_im=0.5, bracket=(0.0, 0.2),
                                   resolution=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.bracket == (0.0, result.jp_star)
    assert 0.0 < result.jp_star <= 1e-6
    assert result.evaluations == len(result.trace) == 33
    assert peak < 1e6


def _search_outcome(lanes, monkeypatch, *args, **kwargs):
    monkeypatch.setattr(lapack, "solve_lanes", lambda: lanes)
    try:
        r = find_threshold_jp(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    assert r.evaluations == len(r.trace)
    assert len({jp for jp, _ in r.trace}) == len(r.trace)  # no repeated solve
    return r.jp_star, r.bracket, r.eps_im


# one particle at mu=0.2 is complex on [0.131, 0.749) at L=4 and on
# [0.0051, 0.903) at L=8: real again at the window's upper end
_WINDOWS = {"one particle L=4": (4, 5e-3), "one particle L=8": (8, 1e-3)}


@pytest.mark.parametrize("case", ["bisection", "resolution 1e-4", "reentrant",
                                  "complex at lo", "real at hi", *_WINDOWS])
def test_threshold_does_not_depend_on_lanes(case, monkeypatch):
    p = ModelParams(cells=8, particles=1)
    kwargs = {"bisection": dict(bracket=(0.0, 0.2)),
              "resolution 1e-4": dict(bracket=(0.0, 0.2), resolution=1e-4),
              "reentrant": dict(eps_im=0.5, bracket=(0.0, 0.2),
                                resolution=0.01),
              "complex at lo": dict(bracket=(0.15, 0.2)),
              "real at hi": dict(bracket=(0.0, 1e-6))}.get(case)
    if case in _WINDOWS:
        cells, resolution = _WINDOWS[case]
        p = ModelParams(cells=cells, particles=1, mu=0.2)
        kwargs = dict(bracket=(0.0, 1.0), resolution=resolution)
    if case == "reentrant":
        monkeypatch.setattr(sweep_mod, "_max_im_for_selector",
                            _reentrant_indicator)
    one = _search_outcome(1, monkeypatch, p, **kwargs)
    two = _search_outcome(2, monkeypatch, p, **kwargs)
    assert one == two
    if case in ("complex at lo", "real at hi"):
        assert one.startswith("invalid bracket: spectrum "
                              + ("already complex" if case == "complex at lo"
                                 else "still real"))
        return
    assert isinstance(one, tuple), one
    jp_star, (lo, hi), eps = one
    assert hi == jp_star
    if case == "reentrant":
        assert lo <= 0.04 < hi
    elif case in _WINDOWS:
        assert hi - lo <= resolution
        assert _max_im_at(p, lo) <= eps < _max_im_at(p, jp_star)
        # steps a tenth of the resolution below the bracket: nothing complex
        step = resolution / 10.0
        assert not any(_max_im_at(p, k * step) > eps
                       for k in range(1, int(math.floor(lo / step)) + 1))


def test_threshold_trace_records_every_solve(monkeypatch):
    monkeypatch.setattr(lapack, "solve_lanes", lambda: 2)
    p = ModelParams(cells=8, particles=1)
    result = find_threshold_jp(p, bracket=(0.0, 0.2), resolution=1e-3)
    jps = [jp for jp, _ in result.trace]
    # the first round in order up to its first complex sample, 0.05; hi is
    # never solved
    assert jps[:2] == [0.0, 0.05]
    assert 0.1 not in jps and 0.2 not in jps
    assert result.evaluations == len(result.trace)
    values = dict(result.trace)
    lo, hi = result.bracket
    assert values[lo] <= result.eps_im < values[hi]


@contextlib.contextmanager
def _recording_lanes(steps):
    """A stand-in for sweep._lanes whose map runs serially and records the
    jp values of each call, empty ones included: one step of the search,
    solved together."""
    def run(fn, jps):
        jps = list(jps)
        steps.append(jps)
        return map(fn, jps)

    yield run


# (crossing, lanes) -> the steps of a search over the bracket (0, 1) at
# resolution 0.1, whose first round samples 0, 0.25, 0.5, 0.75 and 1. At
# crossing -1 the spectrum is complex at lo, and at 2 real at every sample
_SCHEDULES = {
    (0.1, 1): [[0.0], [0.25], [0.125], [0.0625]],
    (0.1, 2): [[0.0, 0.25], [0.125, 0.1875], [0.0625]],
    (0.4, 1): [[0.0], [0.25], [0.5], [0.375], [0.4375]],
    (0.4, 2): [[0.0, 0.25], [0.5, 0.75], [0.375, 0.4375]],
    (0.9, 1): [[0.0], [0.25], [0.5], [0.75], [1.0], [0.875], [0.9375]],
    (0.9, 2): [[0.0, 0.25], [0.5, 0.75], [1.0, 0.875], [0.9375]],
    (-1.0, 1): [[0.0]],
    (-1.0, 2): [[0.0, 0.25]],
    (2.0, 1): [[0.0], [0.25], [0.5], [0.75], [1.0]],
    (2.0, 2): [[0.0, 0.25], [0.5, 0.75], [1.0, 0.875]],
}


@pytest.mark.parametrize("crossing,lanes", list(_SCHEDULES))
def test_first_round_stops_at_its_first_crossing(crossing, lanes,
                                                 monkeypatch):
    # the first round solves its samples in order, lanes at a time, and no
    # sample past the first complex one; hi only once the three inner ones
    # are real, on two lanes beside the midpoint of (0.75, hi). A round
    # whose midpoint was solved ahead dispatches nothing
    def step(result, params, selector, gap_factor, min_gap):
        return float(params.jp > crossing)

    steps = []
    # with eps_im given and the indicator stubbed, no spectrum is read
    solved = types.SimpleNamespace(matrix_norm=1.0)
    monkeypatch.setattr(sweep_mod, "eigendecompose", lambda *a, **kw: solved)
    monkeypatch.setattr(sweep_mod, "_max_im_for_selector", step)
    monkeypatch.setattr(sweep_mod, "_lanes", lambda n: _recording_lanes(steps))
    monkeypatch.setattr(lapack, "solve_lanes", lambda: lanes)
    failure = {-1.0: "already complex", 2.0: "still real at 5 points"}
    raises = (pytest.raises(ValueError, match="invalid bracket: spectrum "
                            + failure[crossing])
              if crossing in failure else contextlib.nullcontext())
    with raises:
        result = find_threshold_jp(ModelParams(cells=2, particles=1),
                                   eps_im=0.5, bracket=(0.0, 1.0),
                                   resolution=0.1)
    assert all(steps)  # a round with nothing new dispatches nothing
    assert steps == _SCHEDULES[crossing, lanes]
    if crossing in failure:
        return
    assert [jp for jp, _ in result.trace] == sum(steps, [])
    assert result.evaluations == len(result.trace)
    # the same answer at either lane count
    lo, hi = result.bracket
    assert hi == result.jp_star
    assert (lo, hi) == {0.1: (0.0625, 0.125), 0.4: (0.375, 0.4375),
                        0.9: (0.875, 0.9375)}[crossing]


def test_threshold_restores_blas_threads(monkeypatch):
    p = ModelParams(cells=8, particles=1)
    with lapack.threads(2):
        before = lapack.get_threads()
        find_threshold_jp(p, bracket=(0.0, 0.2), resolution=0.05)
        assert lapack.get_threads() == before
        with pytest.raises(ValueError):
            find_threshold_jp(p, bracket=(0.0, 1e-6))
        assert lapack.get_threads() == before

        def failing(*args):
            raise RuntimeError("indicator failed")

        monkeypatch.setattr(sweep_mod, "_max_im_for_selector", failing)
        with pytest.raises(RuntimeError):
            find_threshold_jp(p, bracket=(0.0, 0.2))
        assert lapack.get_threads() == before


@pytest.mark.parametrize("eps_im", [-1.0, math.nan])
def test_negative_or_nan_eps_im_is_rejected(eps_im):
    p = ModelParams(cells=4, particles=1, mu=0.2)
    with pytest.raises(ValueError, match="eps_im must be non-negative"):
        find_threshold_jp(p, eps_im=eps_im, bracket=(0.0, 1.0))
    with pytest.raises(ValueError, match="eps_im must be non-negative"):
        small_spec(eps_im=eps_im)


def test_cluster_inputs_are_rejected_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(sweep_mod, "eigendecompose", no_solve)
    for bad, message in [(dict(gap_factor=math.nan), "gap_factor must be"),
                         (dict(min_gap=-1.0), "min_gap must be"),
                         (dict(threshold_selector="bogus"), "selector must be"),
                         (dict(base=ModelParams(cells=1, particles=1),
                               observables=("entropies",)),
                          "left half is empty for cells=1")]:
        with pytest.raises(ValueError, match=message):
            small_spec(**bad)
    p = ModelParams(cells=4, particles=2, u=4.0, mu=0.2)
    # with one particle or zero pair energy no cluster can be bound
    single = ModelParams(cells=4, particles=1, u=4.0, mu=0.2)
    unbound = ModelParams(cells=4, particles=2, mu=0.2)
    for params, bad, message in [
            (p, dict(gap_factor=0.0), "gap_factor must be"),
            (p, dict(cluster_selector="bogus"), "selector must be"),
            (p, dict(cluster_selector="bound", gap_factor=math.nan),
             "gap_factor must be"),
            (single, dict(cluster_selector="bound"),
             "selector 'bound' needs N >= 2 particles .* got N=1"),
            (unbound, dict(cluster_selector="bound"),
             "selector 'bound' needs .* pair energy, got N=2, pair energy 0.0")]:
        # checked before the sector is enumerated
        with monkeypatch.context() as patch, \
                pytest.raises(ValueError, match=message):
            patch.setattr(sweep_mod, "sector_basis", no_solve)
            find_threshold_jp(params, **bad)
    # particles is never an axis: a sweep rejects one particle before any
    # point, but records a zero pair energy in each point's error column,
    # since an axis over u could leave it
    with pytest.raises(ValueError, match="selector 'bound' needs N >= 2 "
                                         "particles, got N=1"):
        small_spec(base=single, observables=("threshold",),
                   threshold_selector="bound")
    spec = small_spec(base=unbound, observables=("threshold",),
                      threshold_selector="bound")
    assert all(row["error"].startswith("ValueError: selector 'bound' needs")
               for row in run_sweep(spec))


def test_a_point_that_cannot_allocate_stops_the_sweep(monkeypatch):
    solves = []

    def exhausted(*args, **kwargs):
        solves.append(1)
        raise MemoryError("Unable to allocate 4.59 GiB")

    monkeypatch.setattr(sweep_mod, "eigendecompose", exhausted)
    monkeypatch.setattr(lapack, "solve_lanes", lambda: 1)
    for observables in (("max_im_global",), ("threshold",)):
        solves.clear()
        with pytest.raises(MemoryError, match="Unable to allocate"):
            run_sweep(small_spec(observables=observables))
        assert len(solves) == 1  # no later point is tried


def _recording_solves(monkeypatch):
    """Patch the sweep's eigendecompose to record, for each solve, the
    solves running at once, the BLAS thread count and the process id."""
    import os
    import threading

    lock = threading.Lock()
    active, seen = [0], []
    original = sweep_mod.eigendecompose

    def recording(*args, **kwargs):
        with lock:
            active[0] += 1
            seen.append((active[0], lapack.get_threads(), os.getpid()))
        try:
            return original(*args, **kwargs)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(sweep_mod, "eigendecompose", recording)
    return seen


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_solves_in_lanes_at_one_blas_thread(workers, monkeypatch):
    import multiprocessing.process
    import os

    def no_child(self):
        raise AssertionError("a sweep started a child process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_child)
    spec = SweepSpec(base=ModelParams(cells=8, particles=1),
                     axes=(Axis("mu", 0.0, 0.1, 4),),
                     observables=("max_im_global", "threshold"),
                     threshold_bracket=(0.0, 0.2), threshold_resolution=1e-2)
    with monkeypatch.context() as one_lane:
        one_lane.setattr(lapack, "solve_lanes", lambda: 1)
        reference = run_sweep(spec, workers=1)
    seen = _recording_solves(monkeypatch)
    with lapack.threads(2):
        before = lapack.get_threads()
        rows = run_sweep(spec, workers=workers)
        assert lapack.get_threads() == before
    assert all(row["error"] == "" for row in rows)
    assert rows == reference
    assert len(seen) > len(rows)
    # a search inside a sweep point solves one point at a time, so no more
    # than the sweep's lanes ever run at once
    assert max(n for n, _, _ in seen) <= sweep_mod.sweep_lanes(workers)
    assert {pid for _, _, pid in seen} == {os.getpid()}
    if lapack.symbol():
        assert {threads for _, threads, _ in seen} == {1}


def test_threshold_solves_at_one_blas_thread_on_any_core_count(monkeypatch):
    # on four cores a standalone search runs the same budget as a search
    # inside a sweep: every solve at one BLAS thread
    monkeypatch.setattr(lapack, "usable_cores", lambda: 4)
    seen = _recording_solves(monkeypatch)
    with lapack.threads(2):
        find_threshold_jp(ModelParams(cells=8, particles=1),
                          bracket=(0.0, 0.2), resolution=1e-2)
    assert seen
    assert {threads for _, threads, _ in seen} == {1 if lapack.symbol()
                                                   else None}


def test_tables_do_not_depend_on_workers_at_large_dimension():
    # at D=465 dgeev's last bits depend on the BLAS thread count; the
    # tables agree because every solve of a sweep runs at one thread
    spec = SweepSpec(base=ModelParams(cells=15, particles=2, jp=0.01, u=4.0),
                     axes=(Axis("mu", 0.1, 0.2, 2),),
                     observables=("max_im_global", "ncor_of_max_im_state"))
    serial = run_sweep(spec, workers=1)
    assert all(row["error"] == "" for row in serial)
    assert run_sweep(spec, workers=2) == serial


def test_threshold_observable_in_sweep():
    base = ModelParams(cells=8, particles=1)
    spec = SweepSpec(base=base, axes=(Axis("mu", 0.0, 0.0, 1),),
                     observables=("threshold",),
                     threshold_bracket=(0.0, 0.2),
                     threshold_resolution=1e-2)
    rows = run_sweep(spec)
    assert rows[0]["error"] == ""
    assert 0.0 < rows[0]["jp_star"] < 0.2


def test_threshold_only_point_makes_no_solve_of_its_own(monkeypatch):
    # the search solves its own jp values; the point itself needs no spectrum
    found = ThresholdResult(jp_star=0.125, bracket=(0.1, 0.125), eps_im=1e-9,
                            evaluations=3)

    def no_solve(*args, **kwargs):
        raise AssertionError("the point solved its own spectrum")

    monkeypatch.setattr(sweep_mod, "_search", lambda *args, **kw: found)
    monkeypatch.setattr(sweep_mod, "eigendecompose", no_solve)
    spec = small_spec(observables=("threshold",))
    rows = run_sweep(spec)
    assert [row["error"] for row in rows] == ["", "", ""]
    assert [row["jp_star"] for row in rows] == [0.125] * 3
    # any other observable still needs the point's spectrum
    spec = small_spec(observables=("threshold", "max_im_global"))
    assert all(row["error"] == "AssertionError: the point solved its own "
               "spectrum" for row in run_sweep(spec))


def test_oversized_sector_fails_the_sweep_before_any_solve(monkeypatch):
    from nhladder.fock import CapacityError

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of an oversized sector")

    monkeypatch.setattr(sweep_mod, "eigendecompose", no_solve)
    for observables in (("max_im_global",), ("threshold",)):
        with pytest.raises(CapacityError, match="exceeds capacity 10"):
            run_sweep(small_spec(observables=observables), capacity=10)


def test_sweep_enumerates_its_sector_once(monkeypatch):
    calls = []

    def counting(params, capacity=None):
        calls.append(params)
        return sector_basis(params, capacity=capacity)

    monkeypatch.setattr(sweep_mod, "sector_basis", counting)
    spec = small_spec(observables=("max_im_global", "threshold"),
                      threshold_bracket=(0.0, 1.0),
                      threshold_resolution=0.1)
    rows = run_sweep(spec, workers=2)
    assert len(rows) == 3
    assert calls == [spec.base]


# ---------------------------------------------------------------------------
# diagonal-energy tables

def test_eonsite_boson_two_particles():
    p = ModelParams(cells=3, particles=2, u=4.0)
    table = eonsite_table(p, (-5.0, 5.0))
    assert isinstance(table, EonsiteTable)
    by_key = {(r["pairs"], r["delta_n"]): r["population"]
              for r in table.classes}
    assert by_key == {(0, -2): 3, (0, 0): 9, (0, 2): 3, (1, -2): 3, (1, 2): 3}
    assert sum(r["population"] for r in table.classes) == 21
    # doublon-A and doublon-B swap order at mu = 0 through a rung pair move
    doublon_cross = [r for r in table.crossings
                     if {r["class_i"], r["class_j"]} ==
                     {cid for cid, r2 in enumerate(table.classes)
                      if r2["pairs"] == 1}]
    assert len(doublon_cross) == 1
    assert doublon_cross[0]["mu_star"] == pytest.approx(0.0)
    assert doublon_cross[0]["order"] == 2


def test_eonsite_third_order_crossing():
    # triplon on leg B meets the all-on-A doublon-plus-single class at
    # mu = 2 u / 6 * ... = (3u - u) / 6 = u / 3
    p = ModelParams(cells=3, particles=3, u=16.0)
    table = eonsite_table(p, (0.0, 10.0))
    classes = {(r["pairs"], r["delta_n"]): r["class_id"]
               for r in table.classes}
    triplon_b = classes[(3, -3)]
    doublon_single_a = classes[(1, 3)]
    hits = [r for r in table.crossings
            if {r["class_i"], r["class_j"]} == {triplon_b, doublon_single_a}]
    assert len(hits) == 1
    assert hits[0]["mu_star"] == pytest.approx(16.0 / 3.0)
    assert hits[0]["order"] == 3


def test_eonsite_fermion_adjacency_classes():
    p = ModelParams(cells=3, particles=2, statistics="fermion", u_nn=16.0)
    table = eonsite_table(p, (0.0, 0.0))
    by_key = {(r["adjacency"], r["delta_n"]): r["population"]
              for r in table.classes}
    # same-leg adjacent pairs: cells (1,2) and (2,3) on each leg
    assert by_key[(1, 2)] == 2
    assert by_key[(1, -2)] == 2
    assert sum(r["population"] for r in table.classes) == 15


def test_eonsite_populations_partition_basis():
    for stats, n, interaction in (("boson", 3, {"u": 2.0}),
                                  ("fermion", 3, {"u_nn": 2.0})):
        p = ModelParams(cells=2, particles=n, statistics=stats, **interaction)
        table = eonsite_table(p, (0.0, 1.0))
        total = sum(r["population"] for r in table.classes)
        assert total == sector_basis(p).dimension


def test_eonsite_window_and_sorting():
    p = ModelParams(cells=3, particles=2, u=4.0)
    table = eonsite_table(p, (0.5, 5.0))
    stars = [r["mu_star"] for r in table.crossings]
    assert stars == sorted(stars)
    assert all(0.5 <= s <= 5.0 for s in stars)


def test_eonsite_validation():
    p = ModelParams(cells=2, particles=2, u=1.0)
    with pytest.raises(ValueError):
        eonsite_table(p, (1.0, 0.0))
    with pytest.raises(ValueError):
        eonsite_table(ModelParams(cells=3, particles=5, u=1.0), (0.0, 1.0))


# dgeev without eigenvectors reduces by a different QR path, so max |Im|
# may differ in its last digits; the largest gap over these searches was
# 5.8e-13 (L=6, N=3, bound, two lanes)
_EIGENVALUE_ONLY_ATOL = 1e-11
_THREE_BOSONS = ModelParams(cells=6, particles=3, u=16.0, mu=16.0 / 3.0)
_THREE_BOSON_SEARCH = dict(bracket=(0.1, 1.2), resolution=0.02, eps_im=1e-2)
_SEARCHES = {
    "L=8 N=2": (ModelParams(cells=8, particles=2, u=4.0, mu=0.2),
                dict(bracket=(0.0, 0.1))),
    "L=6 N=3": (_THREE_BOSONS, _THREE_BOSON_SEARCH),
    # the selectors verify the eigenpair deciding max |Im| over their own
    # clusters: the bound band of the three bosons turns complex at 1.148,
    # the scattering states of the two at 0.0086
    "L=6 N=3 bound": (_THREE_BOSONS,
                      dict(_THREE_BOSON_SEARCH, cluster_selector="bound")),
    "L=8 N=2 scattering": (ModelParams(cells=8, particles=2, u=4.0, mu=0.2),
                           dict(bracket=(0.0, 0.1),
                                cluster_selector="scattering")),
    "L=8 N=2 bound": (ModelParams(cells=8, particles=2, u=16.0, mu=4.0),
                      dict(bracket=(0.0, 0.5), resolution=0.005,
                           cluster_selector="bound")),
}


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("case", list(_SEARCHES))
def test_eigenvalue_only_search_matches_the_full_path(case, lanes,
                                                      monkeypatch):
    params, kwargs = _SEARCHES[case]
    monkeypatch.setattr(lapack, "solve_lanes", lambda: lanes)
    asked = []

    def solve(*args, **kw):
        asked.append(kw["vectors"])
        return eigendecompose(*args, **kw)

    monkeypatch.setattr(sweep_mod, "eigendecompose", solve)
    fast = find_threshold_jp(params, **kwargs)
    assert set(asked) == {False}
    monkeypatch.setattr(sweep_mod, "eigendecompose",
                        lambda *args, **kw: eigendecompose(*args))
    full = find_threshold_jp(params, **kwargs)
    assert (fast.jp_star, fast.bracket, fast.eps_im, fast.evaluations) \
        == (full.jp_star, full.bracket, full.eps_im, full.evaluations)
    assert [jp for jp, _ in fast.trace] == [jp for jp, _ in full.trace]
    np.testing.assert_allclose([v for _, v in fast.trace],
                               [v for _, v in full.trace],
                               rtol=0.0, atol=_EIGENVALUE_ONLY_ATOL)


def test_threshold_at_an_exceptional_point():
    # the sample jp = 0.5 is where the two middle eigenvalues of the
    # two-cell ladder meet (dgeev gives them |Im| of a few 1e-9): its
    # eigenvalue-only solve must still reach a verdict, and with one
    # particle every cluster scatters, so both selectors read one indicator
    params = ModelParams(cells=2, particles=1)
    result = find_threshold_jp(params, bracket=(0.0, 1.0))
    assert result.jp_star == 0.5
    full = find_threshold_jp(params, cluster_selector="scattering",
                             bracket=(0.0, 1.0))
    assert (result.jp_star, result.bracket, result.evaluations) \
        == (full.jp_star, full.bracket, full.evaluations)


@pytest.mark.parametrize("selector", ["scattering", "bound"])
def test_cluster_selectors_hold_no_eigenvector_array(selector, monkeypatch):
    # one lane, so one solve at a time: the D x D complex eigenvectors of a
    # full solve would take the peak to about 4 real D x D arrays
    monkeypatch.setattr(lapack, "solve_lanes", lambda: 1)
    asked = []

    def solve(*args, **kw):
        asked.append(kw["vectors"])
        return eigendecompose(*args, **kw)

    monkeypatch.setattr(sweep_mod, "eigendecompose", solve)
    dimension = sector_basis(_THREE_BOSONS).dimension
    tracemalloc.start()
    try:
        result = find_threshold_jp(_THREE_BOSONS, cluster_selector=selector,
                                   **_THREE_BOSON_SEARCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(asked) == result.evaluations and set(asked) == {False}
    assert peak < 2.5 * 8 * dimension ** 2


def test_sweep_threshold_with_a_selector_solves_eigenvalues_only(
        monkeypatch):
    params, kwargs = _SEARCHES["L=8 N=2 bound"]
    asked = []

    def solve(*args, **kw):
        asked.append(kw["vectors"])
        return eigendecompose(*args, **kw)

    monkeypatch.setattr(sweep_mod, "eigendecompose", solve)
    spec = SweepSpec(base=params, axes=(Axis("mu", 4.0, 4.0, 1),),
                     observables=("threshold",), threshold_selector="bound",
                     threshold_bracket=kwargs["bracket"],
                     threshold_resolution=kwargs["resolution"])
    rows = run_sweep(spec)
    assert rows[0]["error"] == ""
    assert len(asked) >= 5 and set(asked) == {False}
    # a sweep point searches at one lane: the answer of any lane count
    assert rows[0]["jp_star"] == find_threshold_jp(params, **kwargs).jp_star


@pytest.mark.parametrize("case", list(_SEARCHES))
def test_search_trace_equals_one_point_solves(case, monkeypatch):
    # each solve of a search, through the sector's one plan, has the bits
    # of a solve of a Hamiltonian assembled at that point alone, which
    # carries the search's band order, at the search's one BLAS thread
    params, kwargs = _SEARCHES[case]
    selector = kwargs.get("cluster_selector", "all")
    orders = []

    def recording(operator, *args, **kw):
        orders.append(operator.band_order)
        return eigendecompose(operator, *args, **kw)

    monkeypatch.setattr(sweep_mod, "eigendecompose", recording)
    result = find_threshold_jp(params, **kwargs)
    assert len(orders) == len(result.trace)
    basis = sector_basis(params)
    with lapack.threads(1):
        for jp, value in result.trace:
            p = params.with_updates(jp=jp)
            op = build_hamiltonian(p, basis)
            assert all(np.array_equal(op.band_order, order)
                       for order in orders)
            selection = (p, selector, 10.0, None)
            alone = eigendecompose(
                op, vectors=False,
                reads=lambda r: sweep_mod._selected(r, *selection))
            assert sweep_mod._max_im_for_selector(alone, *selection) \
                == value, jp


def test_search_keeps_the_eigenvalue_only_solve(monkeypatch):
    # an operator without a band order is solved in full, eigenvectors
    # included, 1.3-1.5x slower at D~816: every solve of a search must get
    # its plan's order and so return no eigenvectors
    params, kwargs = _SEARCHES["L=8 N=2"]
    results = []

    def recording(operator, *args, **kw):
        assert operator.band_order is not None
        results.append(eigendecompose(operator, *args, **kw))
        return results[-1]

    monkeypatch.setattr(sweep_mod, "eigendecompose", recording)
    result = find_threshold_jp(params, **kwargs)
    assert len(results) == len(result.trace)
    assert all(r.eigenvectors is None for r in results)


def test_sweep_builds_one_plan(monkeypatch):
    plans = []

    class CountingPlan(sweep_mod.SectorPlan):
        def __init__(self, basis):
            plans.append(basis)
            super().__init__(basis)

    monkeypatch.setattr(sweep_mod, "SectorPlan", CountingPlan)
    spec = small_spec(observables=("max_im_global", "threshold"),
                      threshold_bracket=(0.0, 1.0),
                      threshold_resolution=0.1)
    rows = run_sweep(spec, workers=2)
    assert [row["error"] for row in rows] == ["", "", ""]
    assert len(plans) == 1
    find_threshold_jp(spec.base, bracket=(0.0, 1.0), resolution=0.1)
    assert len(plans) == 2
