"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench("--workload", "spectrum-pair", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_rounds_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = [op.argv("x", 2) for op in workloads.round_ops(name, 5)]
        assert first == [op.argv("x", 2) for op in workloads.round_ops(name, 5)]
    faults = [op.known_fault for op in workloads.round_ops("threshold-search", 9)]
    assert faults.count("first-crossing") == 1


def test_reference_matches_the_package_on_a_small_ladder():
    from nhladder import ModelParams, build_hamiltonian, sector_basis

    for stats, inter in (("boson", {"u": 3.0}), ("fermion", {"unn": 3.0})):
        model = workloads.ladder(3, 2, stats, jp=0.3, mu=0.4, **inter)
        params = ModelParams(cells=3, particles=2, statistics=stats, jp=0.3,
                             mu=0.4, u=model["u"], u_nn=model["unn"])
        dense = build_hamiltonian(params, sector_basis(params)).to_dense()
        ours = reference.dense_hamiltonian(model)
        assert ours.shape == dense.shape
        assert reference.trace(model) == pytest.approx(np.trace(dense))
        assert reference.multiset_gap(np.linalg.eigvals(ours),
                                      np.linalg.eigvals(dense)) < 1e-9


def test_self_time_subtracts_child_spans():
    spans = [{"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "name": "sweep.find_threshold_jp", "parent": 0,
              "start": 1.0, "end": 9.0},
             {"id": 2, "name": "eig.eigendecompose", "parent": 1, "n": 100,
              "start": 2.0, "end": 4.0},
             {"id": 3, "name": "eig.eigendecompose", "parent": 1, "n": 100,
              "start": 5.0, "end": 7.0}]
    figures = layer_metrics(spans, items=2)
    assert figures["cli.self_s"] == pytest.approx(1.0)
    assert figures["sweep.find_threshold_jp_s"] == pytest.approx(4.0)
    assert figures["eig.calls"] == 1.0
    assert figures["sweep.threshold_evaluations"] == 2.0
    assert figures["eig.gflops_computed"] == pytest.approx(2 * 25e6 / 4.0 / 1e9)
