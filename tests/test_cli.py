import argparse
import contextlib
import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhladder.cli as cli
from nhladder import lapack
from nhladder.eig import ConvergenceError
from nhladder.cli import main
from nhladder.perturb import EffectiveModelReport
from nhladder.sweep import CROSSING_COLUMNS, EonsiteTable, ThresholdResult


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_spectrum_single_particle_frozen(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--cells", "3", "--particles", "1",
                 "--jp", "0", "--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")
    assert len(rows) == 6
    res = sorted(round(float(r["re_e"]), 9) for r in rows)
    assert res == [-1.0, -1.0, -0.0, 0.0, 1.0, 1.0] or \
        res == [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]
    assert all(abs(float(r["im_e"])) <= 1e-12 for r in rows)
    assert all(float(r["residual"]) <= 1e-9 for r in rows)
    sidecar = read_json(f"{out}.json")
    assert sidecar["command"] == "spectrum"
    assert sidecar["results"]["spectrum_real"] is True
    assert sidecar["results"]["dimension"] == 6
    assert sidecar["config"]["jl_a"] == 1.0
    assert sidecar["config"]["jr_b"] == 1.0


def test_spectrum_complex_case_and_17_digit_roundtrip(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--cells", "15", "--particles", "2",
                 "--u", "4", "--mu", "0.2", "--jp", "0.01",
                 "--out", str(out)]) == 0
    sidecar = read_json(f"{out}.json")
    assert sidecar["results"]["spectrum_real"] is False
    assert sidecar["results"]["max_im"] > 1e-4
    rows = read_csv(f"{out}.csv")
    assert len(rows) == sidecar["results"]["dimension"]
    # 17 significant digits round-trip doubles exactly
    ims = [float(r["im_e"]) for r in rows]
    assert max(ims) == pytest.approx(sidecar["results"]["max_im"], abs=0.0)
    labels = {r["cluster_label"] for r in rows}
    assert labels <= {"RS", "BiS", "LS", "RB", "LB", "mixed", "unclassified"}


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": 3, "particles": 1, "jp": 0.5}))
    out = tmp_path / "run"
    assert main(["spectrum", "--config", str(cfg), "--jp", "0",
                 "--out", str(out)]) == 0
    sidecar = read_json(f"{out}.json")
    assert sidecar["config"]["jp"] == 0.0  # flag beats file
    assert sidecar["config"]["cells"] == 3


def test_sidecar_round_trip_is_bit_identical(tmp_path):
    first = tmp_path / "first"
    assert main(["spectrum", "--cells", "4", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--jp", "0.01", "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["spectrum", "--config", f"{first}.json",
                 "--out", str(second)]) == 0
    with open(f"{first}.csv", "rb") as a, open(f"{second}.csv", "rb") as b:
        assert a.read() == b.read()


def test_sidecar_environment_round_trips_as_config(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    first = tmp_path / "first"
    assert main(["spectrum", "--cells", "3", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--jp", "0.01", "--out", str(first)]) == 0
    sidecar = read_json(f"{first}.json")
    env = sidecar["environment"]
    assert isinstance(env["cores"], int) and env["cores"] >= 1
    assert set(env["blas"]) == {"name", "version"}
    assert env["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert env["thread_env"]["MKL_NUM_THREADS"] is None
    assert env["lapack"] == lapack.symbol()
    assert env["blas_threads"] == (1 if lapack.symbol() else None)
    assert env["solve_lanes"] == 1
    keys = list(sidecar)
    assert keys.index("diagnostics") == keys.index("environment") + 1
    diagnostics = sidecar["diagnostics"]
    assert set(diagnostics) == {"densify_s", "balance_s", "geev_s",
                                "verify_s", "balance_sweeps",
                                "balance_sweep_cap", "balance_log10_spread"}
    assert 0 <= diagnostics["balance_sweeps"] <= diagnostics["balance_sweep_cap"]
    second = tmp_path / "second"
    assert main(["spectrum", "--config", f"{first}.json",
                 "--out", str(second)]) == 0
    with open(f"{first}.csv", "rb") as a, open(f"{second}.csv", "rb") as b:
        assert a.read() == b.read()
    assert read_json(f"{second}.json")["config"] == \
        read_json(f"{first}.json")["config"]
    # a state command makes one solve and carries its diagnostics too
    third = tmp_path / "third"
    assert main(["ncor", "--config", f"{first}.json", "--out", str(third)]) == 0
    assert set(read_json(f"{third}.json")["diagnostics"]) == set(diagnostics)
    # every command runs its BLAS work at one thread
    assert read_json(f"{third}.json")["environment"]["blas_threads"] == \
        env["blas_threads"]
    for command, extra in [("density", []), ("entropy", []),
                           ("effective", ["--u", "8", "--mu", "0"]),
                           ("eonsite", ["--mu-range", "0:4"])]:
        out = tmp_path / command
        assert main([command, "--config", f"{first}.json", *extra,
                     "--out", str(out)]) == 0, command
        assert read_json(f"{out}.json")["environment"]["blas_threads"] == \
            env["blas_threads"], command


@pytest.mark.skipif(lapack.symbol() is None, reason="dgeev is not bound")
def test_sidecar_records_the_blas_threads_the_command_ran_at(tmp_path,
                                                             monkeypatch):
    # with main's one-thread block a no-op the pool keeps the caller's two
    # threads, and the sidecar reads the pool, not a constant
    previous = lapack.set_threads(2)
    try:
        if lapack.get_threads() != 2:
            pytest.skip("OpenBLAS does not take two threads here")
        monkeypatch.setattr(cli.lapack, "threads",
                            lambda n: contextlib.nullcontext())
        out = tmp_path / "run"
        assert main(["spectrum", "--cells", "3", "--particles", "2",
                     "--u", "4", "--jp", "0.01", "--out", str(out)]) == 0
        assert read_json(f"{out}.json")["environment"]["blas_threads"] == 2
    finally:
        lapack.set_threads(previous)


D465 = ["--cells", "15", "--particles", "2", "--u", "4", "--jp", "0.01"]


@pytest.mark.skipif(lapack.symbol() is None, reason="dgeev is not bound")
def test_outputs_do_not_depend_on_the_callers_blas_threads(tmp_path,
                                                           monkeypatch):
    # at D=465 dgeev and the polarization matmul give other last bits at
    # two threads than at one; main runs every command at one thread and
    # gives the caller's count back on every exit
    csvs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        with lapack.threads(threads):
            before = lapack.get_threads()
            assert main(["spectrum", *D465, "--mu", "0.2",
                         "--out", str(out)]) == 0
            assert lapack.get_threads() == before
        with open(f"{out}.csv", "rb") as handle:
            csvs.append(handle.read())
    assert csvs[0] == csvs[1]

    def explode(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    with lapack.threads(2):
        before = lapack.get_threads()
        assert main(["spectrum", "--cells", "2", "--particles", "1",
                     "--min-gap", "-1", "--out", str(tmp_path / "x")]) == 2
        assert lapack.get_threads() == before
        assert main(["spectrum", "--cells", "20", "--particles", "2",
                     "--capacity", "100", "--out", str(tmp_path / "x")]) == 3
        assert lapack.get_threads() == before
        monkeypatch.setattr(cli, "eigendecompose", explode)
        assert main(["spectrum", "--cells", "2", "--particles", "1",
                     "--out", str(tmp_path / "x")]) == 4
        assert lapack.get_threads() == before


@pytest.mark.skipif(lapack.symbol() is None, reason="dgeev is not bound")
def test_spectrum_max_im_equals_one_point_sweep(tmp_path):
    with lapack.threads(2):
        assert main(["spectrum", *D465, "--mu", "0.2",
                     "--out", str(tmp_path / "s")]) == 0
        assert main(["sweep", *D465, "--axis", "mu:0.2:0.2:1",
                     "--out", str(tmp_path / "w")]) == 0
    (row,) = read_csv(tmp_path / "w.csv")
    max_im = read_json(tmp_path / "s.json")["results"]["max_im"]
    assert float(row["max_im_global"]) == max_im


def test_j_alpha_parameterization(tmp_path):
    out = tmp_path / "run"
    alpha = math.log(2.0) / 2.0
    assert main(["spectrum", "--cells", "3", "--particles", "1",
                 "--alpha", f"{alpha}", "--out", str(out)]) == 0
    cfgout = read_json(f"{out}.json")["config"]
    # alpha alone pins the larger amplitude to one
    assert cfgout["jl_a"] == pytest.approx(1.0)
    assert cfgout["jr_a"] == pytest.approx(0.5)
    assert cfgout["jl_b"] == pytest.approx(0.5)
    assert cfgout["jr_b"] == pytest.approx(1.0)


def test_exit_code_2_on_config_errors(tmp_path, capsys, monkeypatch):
    # missing cells
    assert main(["spectrum", "--particles", "1"]) == 2
    # unknown config key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": 2, "particles": 1, "cells_typo": 3}))
    assert main(["spectrum", "--config", str(bad)]) == 2
    # broken JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["spectrum", "--config", str(broken)]) == 2
    # missing file
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
    # JSON that holds no object
    listed = tmp_path / "listed.json"
    listed.write_text("[2, 1]")
    assert main(["spectrum", "--config", str(listed)]) == 2
    # mixing amplitude spellings
    assert main(["spectrum", "--cells", "2", "--particles", "1",
                 "--alpha", "0.3", "--jl", "1.0"]) == 2
    # fermions take u_nn, not u
    assert main(["spectrum", "--cells", "2", "--particles", "2",
                 "--stats", "fermion", "--u", "4"]) == 2
    # bad selector
    assert main(["ncor", "--cells", "2", "--particles", "2", "--u", "1",
                 "--select", "best"]) == 2
    # no cluster of one particle is bound: a sweep fails before any point,
    # as the threshold command does
    for command, extra in [("threshold", []),
                           ("sweep", ["--axis", "jp:0:0.05:3",
                                      "--observables", "threshold"])]:
        capsys.readouterr()
        assert main([command, "--cells", "4", "--particles", "1", *extra,
                     "--selector", "bound",
                     "--out", str(tmp_path / "bound")]) == 2, command
        assert "selector 'bound' needs N >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("bound*"))
    # a bad bracket exits 2 before the sector is enumerated, as a sweep
    # rejects it before any point, even where the sector is over capacity
    for command, extra in [("threshold", []),
                           ("sweep", ["--axis", "jp:0:0.1:2",
                                      "--observables", "threshold"])]:
        capsys.readouterr()
        assert main([command, "--cells", "15", "--particles", "2", *extra,
                     "--bracket", "0.2:0.1", "--capacity", "10",
                     "--out", str(tmp_path / "bracket")]) == 2, command
        assert capsys.readouterr().err.startswith(
            "error (config): bracket must be"), command
    assert not list(tmp_path.glob("bracket*"))
    # wrong-typed file values exit 2 naming the key, as a bad flag would
    model = {"cells": 3, "particles": 2, "u": 4.0}
    axis = {"axes": ["jp:0:0.05:2"]}
    for command, extra in [("spectrum", {"gap_factor": "wide"}),
                           ("entropy", {"select": 5}),
                           ("threshold", {"bracket": 0.1}),
                           ("sweep", {"bracket": 0.1, **axis}),
                           ("sweep", {"observables": 5, **axis}),
                           ("spectrum", {"cells": 3.5}),
                           ("spectrum", {"workers": True}),
                           # argparse checks the choices of a flag alone
                           ("spectrum", {"stats": "anyon"})]:
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({**model, **extra}))
        capsys.readouterr()
        assert main([command, "--config", str(typed),
                     "--out", str(tmp_path / "typed")]) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error (config): " + next(iter(extra))), err
    # a cluster id past the last cluster, which only the spectrum tells
    capsys.readouterr()
    assert main(["density", "--cells", "3", "--particles", "2", "--u", "4",
                 "--select", "cluster:99",
                 "--out", str(tmp_path / "cluster")]) == 2
    assert capsys.readouterr().err.startswith(
        "error (config): cluster id 99 out of range")
    assert not list(tmp_path.glob("cluster*"))

    # inputs that need no spectrum are rejected before the solve
    def solve(*args, **kwargs):
        pytest.fail("solved before rejecting the input")

    import nhladder.sweep as sweep_mod
    monkeypatch.setattr(cli, "eigendecompose", solve)
    monkeypatch.setattr(sweep_mod, "eigendecompose", solve)
    d820 = ["--cells", "20", "--particles", "2", "--u", "4", "--jp", "0.01"]
    for argv, start in [
            (["density", *d820, "--select", "index:abc"], "select"),
            (["density", *d820, "--select", "bogus"], "select"),
            (["density", *d820, "--select", "index:-1"], "select"),
            (["density", *d820, "--select", "index:820"], "select"),
            (["density", *d820, "--select", "cluster:x"], "select"),
            (["entropy", *d820, "--select", "cluster:-2"], "select"),
            (["ncor", "--cells", "8", "--particles", "3", "--u", "4",
              "--jp", "0.01"], "ncor needs exactly two particles, got 3"),
            (["density", "--cells", "3", "--particles", "1", "--kind", "pair"],
             "pair density needs at least two particles, got 1"),
            (["entropy", "--cells", "1", "--particles", "1"],
             "left half is empty for cells=1"),
            (["sweep", "--cells", "1", "--particles", "1", "--axis",
              "jp:0:0.1:2", "--observables", "max_im_global,entropies"],
             "left half is empty for cells=1")]:
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "early")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error (config): " + start), err
    assert not list(tmp_path.glob("early*"))


def test_select_text_round_trips_through_the_sidecar(tmp_path):
    first = tmp_path / "first"
    assert main(["density", "--cells", "3", "--particles", "2", "--u", "4",
                 "--select", "index:05", "--out", str(first)]) == 0
    sidecar = read_json(f"{first}.json")
    assert sidecar["config"]["select"] == "index:05"
    assert sidecar["results"]["state_index"] == 5
    second = tmp_path / "second"
    assert main(["density", "--config", f"{first}.json",
                 "--out", str(second)]) == 0
    with open(f"{first}.csv", "rb") as a, open(f"{second}.csv", "rb") as b:
        assert a.read() == b.read()


def test_float_keys_reject_json_booleans(tmp_path, capsys):
    model = {"cells": 2, "particles": 1}
    floats = [key for key, opt in cli.OPTIONS.items()
              if opt.convert in (cli._float, cli._nonnegative)]
    cases = [("spectrum", {key: True}) for key in floats
             if cli.OPTIONS[key].commands is None]
    cases += [("threshold", {"resolution": False}),
              ("threshold", {"bracket": [0, True]}),
              ("eonsite", {"mu_range": [True, 4]}),
              ("sweep", {"axes": [["jp", 0, True, 2]]})]
    assert {next(iter(extra)) for _, extra in cases} >= set(floats)
    for command, extra in cases:
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps({**model, **extra}))
        capsys.readouterr()
        assert main([command, "--config", str(typed),
                     "--out", str(tmp_path / "typed")]) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith(f"error (config): {next(iter(extra))}: "), err


def test_negative_eps_im_is_rejected(tmp_path, capsys):
    config = tmp_path / "eps.json"
    config.write_text(json.dumps({"cells": 2, "particles": 1, "eps_im": -1}))
    for command in ("spectrum", "threshold"):
        for argv in (["--cells", "2", "--particles", "1", "--eps-im", "-1"],
                     ["--config", str(config)],
                     ["--cells", "2", "--particles", "1", "--eps-im", "nan"]):
            capsys.readouterr()
            assert main([command, *argv,
                         "--out", str(tmp_path / "eps")]) == 2, argv
            assert capsys.readouterr().err.startswith(
                "error (config): eps_im: must be non-negative")
    assert main(["spectrum", "--cells", "2", "--particles", "1",
                 "--eps-im", "0", "--out", str(tmp_path / "zero")]) == 0


def test_nan_options_are_rejected(tmp_path, capsys):
    # every comparison with NaN is False, so a NaN bound would pass a
    # "reject if <= 0" test and silently change the result
    threshold_sweep = ["sweep", "--cells", "3", "--particles", "2", "--u", "4",
                       "--axis", "jp:0:0.05:3", "--observables", "threshold"]
    cases = [("resolution", ["threshold", "--cells", "8", "--particles", "1",
                             "--mu", "0.2", "--bracket", "0:0.2",
                             "--resolution", "nan"]),
             ("min_gap", ["spectrum", "--cells", "6", "--particles", "2",
                          "--min-gap", "nan"]),
             ("gap_factor", ["spectrum", "--cells", "6", "--particles", "2",
                             "--gap-factor", "nan"]),
             # a sweep checks it before its points, not in each point's row
             ("gap_factor", ["sweep", "--cells", "4", "--particles", "2",
                             "--axis", "jp:0:0.1:3",
                             "--observables", "max_im_per_cluster",
                             "--gap-factor", "nan"]),
             # as it does the bracket and resolution of its threshold column
             ("bracket", [*threshold_sweep, "--bracket", "0.1:0"]),
             ("resolution", [*threshold_sweep, "--resolution", "0"])]
    for case, (key, argv) in enumerate(cases):
        out = tmp_path / f"case{case}"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2, argv
        assert f"{key} must be" in capsys.readouterr().err
        assert not list(tmp_path.glob(f"case{case}*"))


def test_infinite_options_are_rejected(tmp_path, capsys):
    # a sidecar writes +-inf as null, which reads back as the default: the
    # rerun of such a config would not give its results
    spectrum = ["spectrum", "--cells", "3", "--particles", "2", "--u", "4",
                "--jp", "0.01"]
    search = ["threshold", "--cells", "4", "--particles", "1", "--mu", "0.2",
              "--bracket", "0:1"]
    cases = [("gap_factor", [*spectrum, "--gap-factor", "inf"]),
             ("min_gap", [*spectrum, "--min-gap", "inf"]),
             ("eps_im", [*spectrum, "--eps-im", "inf"]),
             ("resolution", [*search, "--resolution", "inf"]),
             ("mu_range", ["eonsite", "--cells", "3", "--particles", "2",
                           "--u", "4", "--mu-range=-inf:4"])]
    for case, (key, argv) in enumerate(cases):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / f"case{case}")]) == 2, argv
        assert capsys.readouterr().err.startswith(
            f"error (config): {key}: must be finite"), argv
    assert list(tmp_path.iterdir()) == []


def test_a_hamiltonian_that_overflows_exits_2(tmp_path, capsys):
    # finite options whose entries overflow a double, or whose entries are
    # finite but whose residual check would overflow: a configuration
    # error, not a solver failure, and no floating-point warning on the way
    spectrum = ["spectrum", "--cells", "3", "--particles", "2"]
    cases = [["--jp", "1e308", "--mu", "1e308"],
             ["--mu", "1e308", "--u", "1e308"], ["--jp", "1e200"]]
    for case, options in enumerate(cases):
        capsys.readouterr()
        assert main([*spectrum, *options,
                     "--out", str(tmp_path / f"case{case}")]) == 2, options
        assert capsys.readouterr().err.startswith(
            "error (config): matrix norm "), options
    assert list(tmp_path.iterdir()) == []


def test_exit_code_3_on_capacity(tmp_path, monkeypatch):
    assert main(["spectrum", "--cells", "20", "--particles", "2",
                 "--capacity", "100", "--out", str(tmp_path / "x")]) == 3
    monkeypatch.setenv("NHSE_CAPACITY", "50")
    assert main(["spectrum", "--cells", "20", "--particles", "2",
                 "--out", str(tmp_path / "y")]) == 3
    # every point of a sweep shares the sector: it fails before any point
    monkeypatch.delenv("NHSE_CAPACITY")
    assert main(["sweep", "--cells", "15", "--particles", "2",
                 "--axis", "jp:0:0.1:3", "--capacity", "10",
                 "--out", str(tmp_path / "z")]) == 3
    assert list(tmp_path.iterdir()) == []


def test_exit_code_3_when_the_solve_cannot_allocate(tmp_path, monkeypatch,
                                                    capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.59 GiB")

    monkeypatch.setattr(cli, "eigendecompose", exhausted)
    assert main(["spectrum", "--cells", "2", "--particles", "1",
                 "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == ("error (capacity): Unable to "
                                       "allocate 4.59 GiB\n")
    # a sweep stops at its first such point instead of writing error rows
    import nhladder.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "eigendecompose", exhausted)
    assert main(["sweep", "--cells", "3", "--particles", "2",
                 "--axis", "jp:0:0.05:3", "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err == ("error (capacity): Unable to "
                                       "allocate 4.59 GiB\n")
    assert list(tmp_path.iterdir()) == []


def test_exit_code_4_on_solver_failure(tmp_path, tmp_path_factory, capsys,
                                      monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(cli, "eigendecompose", explode)
    assert main(["spectrum", "--cells", "2", "--particles", "1",
                 "--out", str(tmp_path / "x")]) == 4
    monkeypatch.undo()

    # LAPACK's LinAlgError is a ValueError, yet a solver failure: dgeev
    # that does not converge
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    search = ["threshold", "--cells", "4", "--particles", "1", "--mu", "0.2",
              "--bracket", "0:1", "--resolution", "0.01"]
    monkeypatch.setattr(lapack, "geev", diverge)
    capsys.readouterr()
    assert main(["spectrum", "--cells", "2", "--particles", "1",
                 "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == ("error (solver): Eigenvalues did not "
                                       "converge\n")
    assert main([*search, "--out", str(tmp_path / "t")]) == 4
    assert capsys.readouterr().err.startswith("error (solver): ")
    monkeypatch.undo()

    # inverse iteration on an exactly singular shifted matrix is no solver
    # failure: each eigenvalue-only solve of the search is taken in full,
    # with the answer of an unpatched run
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    geev, requests = lapack.geev, []

    def recording(n, rows, cols, values, vectors=True):
        requests.append(vectors)
        return geev(n, rows, cols, values, vectors)

    out = tmp_path_factory.mktemp("search")
    assert main([*search, "--out", str(out / "plain")]) == 0
    monkeypatch.setattr(lapack, "geev", recording)
    monkeypatch.setattr(lapack, "inverse_iteration", singular)
    assert main([*search, "--out", str(out / "singular")]) == 0
    monkeypatch.undo()
    plain, full = (read_json(out / f"{name}.json")["results"]
                   for name in ("plain", "singular"))
    assert (full["jp_star"], full["bracket"]) \
        == (plain["jp_star"], plain["bracket"])
    assert requests.count(False) == requests.count(True) \
        == full["evaluations"] > 0
    # a resonant effective model is still a configuration error
    assert main(["effective", "--cells", "4", "--particles", "2",
                 "--u", "4", "--mu", "2", "--jp", "0.01",
                 "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.startswith("error (config): denominator")
    assert list(tmp_path.iterdir()) == []


def test_density_site_kind_sums_to_particles(tmp_path):
    out = tmp_path / "d"
    assert main(["density", "--cells", "4", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--jp", "0.01", "--select", "max_im",
                 "--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")
    assert len(rows) == 8
    assert {r["leg"] for r in rows} == {"A", "B"}
    assert sum(float(r["density"]) for r in rows) == pytest.approx(2.0,
                                                                   abs=1e-9)


def test_density_pair_kind(tmp_path):
    out = tmp_path / "d"
    assert main(["density", "--cells", "3", "--particles", "2", "--u", "4",
                 "--kind", "pair", "--select", "index:0",
                 "--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")
    assert len(rows) == 36  # (2L)^2
    total = sum(float(r["value"]) for r in rows)
    # sum_x1,x2 <n_x1 n_x2> = <N^2> = 4
    assert total == pytest.approx(4.0, abs=1e-9)


def test_density_cluster_selector(tmp_path):
    out = tmp_path / "d"
    assert main(["density", "--cells", "4", "--particles", "2", "--u", "8",
                 "--mu", "0.2", "--jp", "0.01", "--select", "cluster:1",
                 "--out", str(out)]) == 0
    sidecar = read_json(f"{out}.json")
    # cluster 1 is the bound band near u
    assert sidecar["results"]["re_e"] > 4.0


def test_ncor_command(tmp_path):
    out = tmp_path / "n"
    assert main(["ncor", "--cells", "4", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--jp", "0.01", "--out", str(out)]) == 0
    sidecar = read_json(f"{out}.json")
    assert set(sidecar["results"]) == {"state_index", "re_e", "im_e", "ncor"}
    assert math.isfinite(sidecar["results"]["ncor"])


def test_entropy_command_fields(tmp_path):
    out = tmp_path / "s"
    assert main(["entropy", "--cells", "4", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--jp", "0.01", "--out", str(out)]) == 0
    results = read_json(f"{out}.json")["results"]
    for key in ("s_ab", "s_leftright", "rho_a_frac", "rho_left_frac"):
        assert math.isfinite(results[key])
        assert results[key] >= 0.0
    assert results["rho_a_frac"] <= 1.0
    assert results["rho_left_frac"] <= 1.0


def test_sweep_command(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--cells", "3", "--particles", "2", "--u", "4",
                 "--mu", "0.2", "--axis", "jp:0:0.05:3",
                 "--observables", "max_im_global,polarization",
                 "--workers", "2", "--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")
    assert len(rows) == 3
    assert set(rows[0]) == {"jp", "max_im_global", "polarization", "error"}
    assert [float(r["jp"]) for r in rows] == [0.0, 0.025, 0.05]
    assert all(r["error"] == "" for r in rows)
    sidecar = read_json(f"{out}.json")
    assert sidecar["results"]["failures"] == 0
    env = sidecar["environment"]
    assert env["blas_threads"] == (1 if lapack.symbol() else None)
    assert env["solve_lanes"] == 2  # --workers 2: two points at once


def test_sweep_round_trip_via_sidecar(tmp_path):
    first = tmp_path / "a"
    assert main(["sweep", "--cells", "3", "--particles", "2", "--u", "4",
                 "--axis", "jp:0:0.05:2", "--axis", "mu:0:0.1:2",
                 "--out", str(first)]) == 0
    second = tmp_path / "b"
    assert main(["sweep", "--config", f"{first}.json",
                 "--out", str(second)]) == 0
    with open(f"{first}.csv", "rb") as a, open(f"{second}.csv", "rb") as b:
        assert a.read() == b.read()


def test_sweep_requires_axis(tmp_path):
    assert main(["sweep", "--cells", "3", "--particles", "2", "--u", "4",
                 "--out", str(tmp_path / "x")]) == 2


def test_threshold_command(tmp_path, monkeypatch):
    import nhladder.sweep as sweep_mod

    threads = []
    original = sweep_mod.eigendecompose

    def recording(*args, **kwargs):
        threads.append(lapack.get_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "eigendecompose", recording)
    out = tmp_path / "t"
    assert main(["threshold", "--cells", "8", "--particles", "1",
                 "--bracket", "0:0.2", "--resolution", "0.01",
                 "--out", str(out)]) == 0
    sidecar = read_json(f"{out}.json")
    assert sidecar["diagnostics"] is None  # many solves, no single record
    # the environment records the thread count the solves ran at
    env = sidecar["environment"]
    assert set(threads) == {env["blas_threads"]}
    assert env["solve_lanes"] == lapack.solve_lanes()
    results = sidecar["results"]
    assert 0.0 < results["jp_star"] < 0.2
    assert results["bracket"][1] - results["bracket"][0] <= 0.01 + 1e-12
    assert results["evaluations"] == len(results["trace"]) > 0
    # the sidecar results are the ThresholdResult, field for field
    assert list(results) == [f.name for f in dataclasses.fields(
        ThresholdResult)]
    # lo, then the first round's samples in order, up to the first complex
    assert [jp for jp, _ in results["trace"][:2]] == [0.0, 0.05]
    # invalid bracket is a parameter error
    assert main(["threshold", "--cells", "8", "--particles", "1",
                 "--bracket", "0.15:0.2",
                 "--out", str(tmp_path / "t2")]) == 2


def test_effective_command(tmp_path):
    out = tmp_path / "e"
    assert main(["effective", "--cells", "6", "--particles", "2",
                 "--u", "8", "--jp", "0.01", "--out", str(out)]) == 0
    results = read_json(f"{out}.json")["results"]
    assert results["rung_coupling"] == pytest.approx(3.5355339059327375e-05,
                                                     rel=1e-12)
    assert results["max_dev"] < 0.1
    assert results["ratio"] > 1.0
    # the sidecar results are the EffectiveModelReport less its params
    assert list(results) == [f.name for f in dataclasses.fields(
        EffectiveModelReport) if f.name != "params"]
    rows = read_csv(f"{out}.csv")
    assert len(rows) == 12


def test_effective_honours_the_clustering_options(tmp_path, capsys):
    # at u = 4 the default gaps split the bound band off with one stray
    # eigenvalue; a larger min_gap isolates exactly the 2L pair states
    model = ["--cells", "4", "--particles", "2", "--u", "4", "--jp", "0.01"]
    assert main(["effective", *model, "--out", str(tmp_path / "d")]) == 4
    assert "found 9 eigenvalues near u=4.0, expected 8" in \
        capsys.readouterr().err
    out = tmp_path / "e"
    assert main(["effective", *model, "--min-gap", "1",
                 "--out", str(out)]) == 0
    assert read_json(f"{out}.json")["results"]["max_dev"] == \
        pytest.approx(0.0269, abs=1e-4)
    assert len(read_csv(f"{out}.csv")) == 8


def test_eonsite_command(tmp_path):
    out = tmp_path / "eon"
    assert main(["eonsite", "--cells", "3", "--particles", "3", "--u", "16",
                 "--mu-range", "0:10", "--out", str(out)]) == 0
    classes = read_csv(f"{out}_classes.csv")
    crossings = read_csv(f"{out}_crossings.csv")
    assert sum(int(r["population"]) for r in classes) == 56
    stars = [float(r["mu_star"]) for r in crossings]
    assert any(abs(s - 16.0 / 3.0) < 1e-9 for s in stars)
    orders = {float(r["mu_star"]): int(r["order"]) for r in crossings}
    assert orders[min(stars, key=lambda s: abs(s - 16.0 / 3.0))] == 3
    # the sidecar results are the EonsiteTable, and the CSVs its rows
    results = read_json(f"{out}.json")["results"]
    assert list(results) == [f.name for f in dataclasses.fields(EonsiteTable)]
    assert list(classes[0]) == list(results["classes"][0])
    assert list(crossings[0]) == list(CROSSING_COLUMNS)


def test_eonsite_negative_mu_range_joined_with_equals(tmp_path):
    out = tmp_path / "eon"
    assert main(["eonsite", "--cells", "2", "--particles", "2", "--u", "4",
                 "--mu-range=-20:20", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "eon.json").read_text())
    assert sidecar["config"]["mu_range"] == [-20.0, 20.0]
    stars = [float(r["mu_star"]) for r in read_csv(f"{out}_crossings.csv")]
    assert stars and min(stars) < 0.0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nhladder", "spectrum", "--cells", "2",
         "--particles", "1", "--out", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spectrum:" in proc.stdout
    assert (tmp_path / "m.csv").exists()


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main([])


def test_list_keys_read_flag_text_and_sidecar_lists(tmp_path):
    model = ["--cells", "3", "--particles", "2", "--u", "4", "--mu", "0.2"]
    flags = tmp_path / "flags"
    assert main(["sweep", *model, "--axis", "jp:0:0.05:2",
                 "--bracket", "0:0.2",
                 "--observables", "max_im_global,polarization",
                 "--out", str(flags)]) == 0
    spellings = [{"bracket": "0:0.2", "axes": ["jp:0:0.05:2"],
                  "observables": "max_im_global,polarization"},
                 {"bracket": [0, 0.2], "axes": [["jp", 0, 0.05, 2]],
                  "observables": ["max_im_global", "polarization"]}]
    for i, spelled in enumerate(spellings):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"cells": 3, "particles": 2, "u": 4,
                                   "mu": 0.2, **spelled}))
        out = tmp_path / f"file{i}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_json(f"{out}.json")["config"] == \
            read_json(f"{flags}.json")["config"]
        with open(f"{out}.csv", "rb") as a, open(f"{flags}.csv", "rb") as b:
            assert a.read() == b.read()


MODEL_FLAGS = ["--config", "--cells", "--particles", "--stats", "--jl",
               "--jr", "--j", "--alpha", "--jp", "--mu", "--u", "--unn",
               "--eps-im", "--workers", "--gap-factor", "--min-gap",
               "--capacity", "--out"]
MODEL_KEYS = ["cells", "particles", "stats", "jl", "jr", "j", "alpha",
              "jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu", "u", "unn",
              "eps_im", "workers", "gap_factor", "min_gap", "capacity"]
SIDECAR_KEYS = ["cells", "particles", "stats", "jl_a", "jr_a", "jl_b",
                "jr_b", "jp", "mu", "u", "unn", "eps_im", "workers",
                "gap_factor", "min_gap", "capacity"]
# Per command: extra flags, extra config keys, and a flag-driven run.
SURFACE = {
    "spectrum": ([], [], ["--cells", "2", "--particles", "1"]),
    "density": (["--select", "--kind"], ["select", "kind"],
                ["--cells", "2", "--particles", "1"]),
    "ncor": (["--select"], ["select"], ["--cells", "2", "--particles", "2"]),
    "entropy": (["--select"], ["select"],
                ["--cells", "2", "--particles", "2"]),
    "sweep": (["--axis", "--observables", "--selector", "--bracket",
               "--resolution"],
              ["axes", "observables", "selector", "bracket", "resolution"],
              ["--cells", "2", "--particles", "1", "--axis", "jp:0:0.1:1"]),
    "threshold": (["--selector", "--bracket", "--resolution"],
                  ["selector", "bracket", "resolution"],
                  ["--cells", "4", "--particles", "1", "--bracket", "0:0.2",
                   "--resolution", "0.05"]),
    "effective": ([], [], ["--cells", "4", "--particles", "2", "--u", "8",
                           "--jp", "0.01"]),
    "eonsite": (["--mu-range"], ["mu_range"],
                ["--cells", "2", "--particles", "2", "--mu-range", "0:4"]),
}


# The CSV files each command writes, by the suffix after its --out prefix.
CSV_SUFFIXES = {"spectrum": [""], "density": [""], "ncor": [], "entropy": [],
                "sweep": [""], "threshold": [], "effective": [""],
                "eonsite": ["_classes", "_crossings"]}
SIDECAR_LAYOUT = ["command", "config", "results", "outputs", "timings",
                  "environment", "diagnostics", "versions"]


def test_option_surface_is_pinned(tmp_path, capsys):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(SURFACE)
    for command, (flags, keys, argv) in SURFACE.items():
        accepted = {s for a in commands[command]._actions
                    for s in a.option_strings} - {"-h", "--help"}
        assert accepted == set(MODEL_FLAGS + flags), command
        assert list(cli._options_for(command)) == MODEL_KEYS + keys, command
        (tmp_path / command).mkdir()
        out = tmp_path / command / "run"
        capsys.readouterr()
        assert main([command, *argv, "--out", str(out)]) == 0, command
        stdout = capsys.readouterr().out.splitlines()
        sidecar = read_json(f"{out}.json")
        assert list(sidecar["config"]) == SIDECAR_KEYS + keys, command
        # the output contract: the tables, then the sidecar naming them
        assert list(sidecar) == SIDECAR_LAYOUT, command
        outputs = [f"{out}{suffix}.csv" for suffix in CSV_SUFFIXES[command]]
        assert sidecar["outputs"] == outputs, command
        assert sorted(str(p) for p in (tmp_path / command).iterdir()) == \
            sorted([*outputs, f"{out}.json"]), command
        assert len(stdout) == 2 and stdout[0].startswith(f"{command}: ")
        assert stdout[-1] == " ".join(["wrote", *outputs, f"{out}.json"])
        # rerun from the sidecar: the same tables and the same results
        rerun = tmp_path / f"{command}-rerun" / "run"
        rerun.parent.mkdir()
        assert main([command, "--config", f"{out}.json",
                     "--out", str(rerun)]) == 0, command
        for suffix in CSV_SUFFIXES[command]:
            assert Path(f"{rerun}{suffix}.csv").read_bytes() == \
                Path(f"{out}{suffix}.csv").read_bytes(), command
        assert read_json(f"{rerun}.json")["results"] == sidecar["results"], \
            command


@pytest.mark.parametrize("command", list(SURFACE))
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
