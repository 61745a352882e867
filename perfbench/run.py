"""nhladder benchmark: runs one workload of CLI commands and prints metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum-pair --seed 1 --seconds 40 --trace 0

`--workload all` runs every workload in turn. `--trace 1` makes a separate
traced run that reports per-layer figures and writes its spans to
`.perfbench/trace-<workload>-<seed>.json`. `--smoke` runs one command of
the round once, for the benchmark's own tests. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import workloads
from tracing import Tracer, layer_metrics

BENCH_DIR = ".perfbench"
SETUP_REPEATS = 11
PROBES_PER_ROUND = 3
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import nhladder as nh; "
              "p = nh.ModelParams(cells=4, particles=2, jp=0.01, mu=0.2, u=4.0); "
              "nh.eigendecompose(nh.build_hamiltonian(p, nh.sector_basis(p)))")
WARMUP_ARGV = ["spectrum", "--cells", "4", "--particles", "2", "--jp", "0.01",
               "--mu", "0.2", "--u", "4"]

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer figures reported in the final JSON: times of layers every gated
# workload calls, and counts. The rest of layer_metrics() is printed and
# kept in the trace file; see README.md.
PER_LAYER = {"fock.sector_basis_s": "s", "model.build_hamiltonian_s": "s",
             "model.build_calls": "count", "eig.eigendecompose_s": "s",
             "eig.calls": "count", "eig.gflops_computed": "GFLOP/s",
             "sweep.threshold_evaluations": "count", "cli.self_s": "s",
             "cli.output_bytes": "B", "trace.overhead_share": "ratio"}
ITEM_NAMES = {"spectrum-pair": "spectra", "threshold-search": "thresholds",
              "sweep-grid": "sweep points"}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Threads the loaded OpenBLAS will use, read without changing it."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(nhladder) -> Dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"usable_cores": usable_cores(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nhladder": nhladder.__version__}


def call_cli(cli_main, argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def timed_rounds(cli_main, ops, work: str, seconds: float, smoke: bool,
                 workers: int, tag: str, between=None) -> Dict:
    """Run whole rounds until `seconds` of rounds are timed (one round in
    smoke mode); `between(index)` runs after each round, outside the timing.
    Returns the output prefixes, exit codes and round times."""
    done = []
    round_s = []
    while True:
        begin = time.perf_counter()
        for k, op in enumerate(ops):
            prefix = os.path.join(work, f"{tag}{len(round_s)}-op{k}")
            rc = call_cli(cli_main, op.argv(prefix, workers))
            done.append((op, prefix, rc))
        round_s.append(time.perf_counter() - begin)
        if between is not None:
            between(len(round_s) - 1)
        if smoke or sum(round_s) >= seconds:
            return {"done": done, "elapsed": sum(round_s), "rounds": len(round_s),
                    "round_s": round_s}


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing nhladder and finishing a
    first small solve."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def check_outputs(done) -> Dict:
    checker = workloads.Checker()
    failed = 0
    unexpected = []
    for op, prefix, rc in done:
        problems = ["exit-code"] if rc != 0 else checker.check(op, prefix)
        if problems:
            failed += 1
            if problems != [op.known_fault]:
                unexpected.append((os.path.basename(prefix), problems))
    return {"attempted": len(done), "failed": failed, "unexpected": unexpected}


def run_workload(nh, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict:
    ops = workloads.round_ops(name, seed)
    if smoke:
        ops = ops[:1]
    work = os.path.join(BENCH_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        # the first BLAS call in a process is slow; users pay it once
        call_cli(nh.cli.main, WARMUP_ARGV + ["--out", os.path.join(work, "warmup")])
        measure = traced_run if trace else timed_run
        result = measure(nh, name, seed, ops, work, seconds, smoke)
        result.update(check_outputs(result["run"]["done"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def timed_run(nh, name, seed, ops, work, seconds, smoke) -> Dict:
    """End-to-end metrics, tracing off. Set-up probes run between rounds, so
    their median spans the run rather than one moment of it. Peak memory is
    this process's plus its largest child's (sweep workers), the latter
    read after the first round, before any probe adds its own."""
    probes: List[float] = []
    children_kb: List[int] = []

    def between(index: int) -> None:
        if index == 0:
            children_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        probes.extend(setup_probe() for _ in range(PROBES_PER_ROUND))

    run = timed_rounds(nh.cli.main, ops, work, seconds, smoke, usable_cores(),
                       "r", between)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while not smoke and len(probes) < SETUP_REPEATS:
        probes.append(setup_probe())
    metrics = {"peak_rss_mb": (own_kb + children_kb[0]) / 1024.0,
               "items_per_s": (sum(op.items for op in ops)
                               / statistics.median(run["round_s"])),
               "setup_s": statistics.median(probes)}
    return {"metrics": metrics, "extra": {}, "run": run}


def traced_run(nh, name, seed, ops, work, seconds, smoke) -> Dict:
    """Per-layer metrics from spans, and the tracing overhead against one
    untraced round made after the traced ones."""
    workers = usable_cores()
    cli_main = nh.cli.main
    tracer = Tracer()
    tracer.install(nh)
    try:
        run = timed_rounds(lambda argv: tracer.span("cli.main", cli_main, argv),
                           ops, work, seconds, smoke, workers, "r")
    finally:
        tracer.uninstall()
    plain = timed_rounds(cli_main, ops, work, 0.0, True, workers, "u")
    items = run["rounds"] * sum(op.items for op in ops)
    figures = layer_metrics(tracer.spans, items)
    figures["trace.overhead_share"] = (statistics.median(run["round_s"])
                                       / plain["elapsed"] - 1.0)
    figures["cli.output_bytes"] = sum(workloads.output_bytes(p)
                                      for _, p, _ in run["done"]) / items
    if name == "sweep-grid":
        figures.update(serial_replay(nh, ops, work, workers, run))
    tracer.write(os.path.join(BENCH_DIR, f"trace-{name}-{seed}.json"),
                 {"workload": name, "seed": seed, "items": items,
                  "figures": figures, "env": environment(nh)})
    return {"metrics": {k: figures[k] for k in PER_LAYER},
            "extra": {k: v for k, v in figures.items() if k not in PER_LAYER},
            "run": run}


def serial_replay(nh, ops, work: str, workers: int, run) -> Dict:
    """Replay the grid in-process with one worker under a tracer of its own:
    gives the layer times below run_sweep (worker spans are not collected)
    and the parallel efficiency of the traced parallel rounds."""
    tracer = Tracer()
    tracer.install(nh)
    start = time.perf_counter()
    try:
        for k, op in enumerate(ops):
            call_cli(lambda argv: tracer.span("cli.main", nh.cli.main, argv),
                     op.argv(os.path.join(work, f"serial-op{k}"), 1))
    finally:
        tracer.uninstall()
    serial = time.perf_counter() - start
    points = sum(op.items for op in ops)
    below = layer_metrics(tracer.spans, points)
    out = {k: v for k, v in below.items()
           if k.split(".")[0] in ("fock", "model", "eig", "observables")}
    out["sweep.parallel_efficiency"] = serial / (workers * statistics.median(run["round_s"]))
    return out


def emit(name: str, result: Dict, units: Dict[str, str]) -> None:
    run = result["run"]
    print(f"[{name}] rounds={run['rounds']} wall={run['elapsed']:.3f}s "
          f"round_s={[round(t, 3) for t in run['round_s']]} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"items={ITEM_NAMES[name]}")
    for key, value in result["metrics"].items():
        print(f"[{name}] {key} {value:.6g} {units[key]}")
    for key, value in result["extra"].items():
        unit = "s" if key.endswith("_s") else "ratio"
        print(f"[{name}] {key} {value:.6g} {unit} (not in BENCHMARK.json)")
    for label, problems in result["unexpected"]:
        print(f"[{name}] check failed: {label}: {', '.join(problems)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one command of each round, run once")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "nhladder", "__init__.py")):
        print("error: run from the root of an nhladder checkout "
              "(src/nhladder not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import nhladder
    import nhladder.cli

    units = PER_LAYER if args.trace else END_TO_END
    print("env " + json.dumps(environment(nhladder)))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(nhladder, name, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        emit(name, result, units)
        summary["correct"] &= not result["unexpected"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in result["metrics"].items():
            summary["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
