"""Command line interface.

Subcommands: spectrum, density, ncor, entropy, sweep, threshold, effective,
eonsite. Parameters resolve in three layers: built-in defaults, then a JSON
config file (--config), then explicit flags. Passing a result sidecar JSON
as --config reruns its stored configuration.

Each command computes and returns an Outcome; main alone writes it: the
command's CSV tables (<out>.csv for spectrum, density, sweep and effective,
<out>_classes.csv and <out>_crossings.csv for eonsite, none for ncor,
entropy and threshold), then the sidecar <out>.json holding the command,
resolved config, headline results, the paths written, timings, environment,
solver diagnostics and library versions, then two stdout lines:
"<command>: <summary>" and "wrote <paths>". The results of threshold,
effective and eonsite are the fields of the result dataclass their library
call returns, in declaration order (_record). Inputs that need no spectrum
(--select spellings, an index past the sector dimension, the particle count
of ncor and of pair densities, the cell count of entropy) are rejected
before any solve.

Exit codes: 0 success, 2 configuration or parameter errors, 3 capacity
overruns (the size budget, or a buffer that cannot be allocated), 4 solver
or verification failures.

Every command runs at one OpenBLAS thread, dgeev and the observables'
matrix products alike, so no output depends on the thread count; main
restores the caller's count on every exit.

Each command imports the driver module it runs (sweep, perturb) when it
runs, so spectrum, density, ncor and entropy never load either.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__, lapack
from .eig import default_eps_im, eigendecompose
from .fock import CapacityError, basis_dimension, site_cell_leg
from .model import ModelParams, build_hamiltonian, leg_hops, sector_basis
from .observables import (OBSERVABLES, SELECTORS, check_gaps,
                          correlation_ncor, correlation_ncor_all,
                          cut_entropies, label_clusters, left_half_sites,
                          pair_density, polarization_all, select_clusters,
                          site_density)

# The sweep drivers the commands call. They are attributes of this module,
# imported from sweep on first use (PEP 562), and the commands call them as
# such, so that a wrapper set here (perfbench/tracing.py) sees every call.
_SWEEP_DRIVERS = ("find_threshold_jp", "run_sweep")
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _SWEEP_DRIVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep
    return getattr(sweep, name)


def _int(value) -> int:
    """Integer flag text, or a JSON number with no fractional part."""
    if isinstance(value, bool) or isinstance(value, float) \
            and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """Float flag text or a JSON number; JSON booleans are rejected, and so
    is +-inf, which a sidecar would write as null, read back as the default.
    NaN is left to each key's own check."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if math.isinf(number):
        raise ValueError(f"must be finite, got {number!r}")
    return number


def _nonnegative(value) -> float:
    """A _float that is at least zero."""
    number = _float(value)
    if not number >= 0.0:
        raise ValueError(f"must be non-negative, got {number!r}")
    return number


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _selector(value) -> str:
    """--select text, kept as given: max_im, index:K or cluster:K with K an
    integer >= 0. An index is checked against the sector dimension, and a
    cluster id against the clusters, where the command reads it."""
    text = _text(value)
    kind, _, number = text.partition(":")
    try:
        if text == "max_im" or kind in ("index", "cluster") \
                and int(number) >= 0:
            return text
    except ValueError:
        pass
    raise ValueError(f"expected max_im, index:K or cluster:K with K >= 0, "
                     f"got {text!r}")


def _fields(value, sep: Optional[str]) -> Sequence:
    """Flag text split on sep (if given), or the list form sidecars store."""
    parts = value.split(sep) if sep and isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)):
        raise ValueError(f"expected text or a list, got {value!r}")
    return parts


def _range(value) -> Tuple[float, float]:
    lo, hi = _fields(value, ":")
    return _float(lo), _float(hi)


def _names(value) -> Tuple[str, ...]:
    names = [_text(name).strip() for name in _fields(value, ",")]
    return tuple(filter(None, names))


def _axes(value) -> Tuple[Tuple, ...]:
    """(name, start, stop, points) per name:start:stop:points text or list."""
    axes = [_fields(entry, ":") for entry in _fields(value, None)]
    return tuple((name, _float(start), _float(stop), _int(points))
                 for name, start, stop, points in axes)


class Option(NamedTuple):
    """One config key: its flag (None: config files only), the conversion
    of both flag text and file values, default, commands (None: all), help."""

    flag: Optional[str]
    convert: Callable
    default: object = None
    commands: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    choices: Tuple[str, ...] = ()
    repeat: bool = False


REQUIRED = object()  # default of a key that must be given

# Every command accepts the model keys, even those it never reads, so that
# any sidecar loads as a config. The table order is the sidecar key order.
OPTIONS: Dict[str, Option] = {
    "cells": Option("--cells", _int, REQUIRED, help="ladder cells L"),
    "particles": Option("--particles", _int, REQUIRED, help="particles N"),
    "stats": Option("--stats", _text, "boson", choices=("boson", "fermion")),
    "jl": Option("--jl", _float, help="leg A left hop (leg B mirrored)"),
    "jr": Option("--jr", _float, help="leg A right hop (leg B mirrored)"),
    "j": Option("--j", _float, help="symmetric hop scale"),
    "alpha": Option("--alpha", _float, help="hop imbalance exponent"),
    "jl_a": Option(None, _float), "jr_a": Option(None, _float),
    "jl_b": Option(None, _float), "jr_b": Option(None, _float),
    "jp": Option("--jp", _float, 0.0, help="rung coupling"),
    "mu": Option("--mu", _float, 0.0, help="leg imbalance potential"),
    "u": Option("--u", _float, 0.0, help="boson on-site repulsion"),
    "unn": Option("--unn", _float, 0.0, help="fermion neighbor repulsion"),
    "eps_im": Option("--eps-im", _nonnegative,
                     help="reality threshold on |Im E|"),
    "workers": Option("--workers", _int, 1,
                      help="minimum number of sweep points solved at once"),
    "gap_factor": Option("--gap-factor", _float, 10.0),
    "min_gap": Option("--min-gap", _float),
    "capacity": Option("--capacity", _int, help="basis size budget"),
    "select": Option("--select", _selector, "max_im",
                     ("density", "ncor", "entropy"),
                     "max_im | index:K | cluster:K"),
    "kind": Option("--kind", _text, "site", ("density",),
                   choices=("site", "pair")),
    "axes": Option("--axis", _axes, REQUIRED, ("sweep",),
                   "name:start:stop:points (repeat for 2 axes)", repeat=True),
    "observables": Option("--observables", _names, ("max_im_global",),
                          ("sweep",), "comma list: " + ", ".join(OBSERVABLES)),
    "selector": Option("--selector", _text, "all", ("sweep", "threshold"),
                       choices=SELECTORS),
    "bracket": Option("--bracket", _range, (0.0, 0.1), ("sweep", "threshold"),
                      "lo:hi for the threshold search"),
    "resolution": Option("--resolution", _float, 1e-3, ("sweep", "threshold")),
    "mu_range": Option("--mu-range", _range, REQUIRED, ("eonsite",),
                       "lo:hi window for crossings"),
}


def _options_for(command: str) -> Dict[str, Option]:
    return {key: opt for key, opt in OPTIONS.items()
            if opt.commands is None or command in opt.commands}


def _fmt(value) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as handle:
        json.dump(_jsonify(payload), handle, indent=2)
        handle.write("\n")


def _load_config_file(path: str) -> Dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        # Result sidecar: rerun its stored configuration.
        data = data["config"]
    return data


def _resolve_config(args: argparse.Namespace, command: str) -> Dict:
    options = _options_for(command)
    given = _load_config_file(args.config) if args.config else {}
    unknown = set(given) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: "
                         f"{sorted(unknown)}")
    given.update((key, value) for key, value in vars(args).items()
                 if key in options and value is not None)
    cfg = {}
    for key, opt in options.items():
        value = given.get(key)
        try:
            cfg[key] = opt.default if value is None else opt.convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
        if cfg[key] is REQUIRED:
            raise ValueError(f"{key} is required ({opt.flag} or config)")
        if opt.choices and cfg[key] not in opt.choices:
            raise ValueError(f"{key}: invalid choice: {cfg[key]!r} "
                             f"(choose from {', '.join(opt.choices)})")
    check_gaps(cfg["gap_factor"], cfg["min_gap"])
    _finalize_amplitudes(cfg)
    return cfg


def _finalize_amplitudes(cfg: Dict) -> None:
    """Reduce the accepted amplitude spellings to per-leg values.

    Either (j, alpha), or the shorthand (jl, jr) for leg A mirrored onto
    leg B, or explicit per-leg keys. j defaults to exp(-alpha), which
    normalizes jl to one, the larger amplitude for alpha >= 0; alpha
    defaults to zero. An alpha whose exp overflows raises ValueError
    (model.leg_hops).
    """
    j, alpha, jl, jr = (cfg.pop(key) for key in ("j", "alpha", "jl", "jr"))
    legs = ("jl_a", "jr_a", "jl_b", "jr_b")
    if j is not None or alpha is not None:
        if any(v is not None for v in (jl, jr, *map(cfg.get, legs))):
            raise ValueError("give either j/alpha or explicit hop amplitudes, "
                             "not both")
        jl, jr = leg_hops(j, 0.0 if alpha is None else alpha)
    else:
        jl = 1.0 if jl is None else jl
        jr = 0.5 if jr is None else jr
    for key, fallback in zip(legs, (jl, jr, jr, jl)):
        if cfg[key] is None:
            cfg[key] = fallback


def _params_from_config(cfg: Dict) -> ModelParams:
    return ModelParams(cells=cfg["cells"], particles=cfg["particles"],
                       statistics=cfg["stats"], jl_a=cfg["jl_a"],
                       jr_a=cfg["jr_a"], jl_b=cfg["jl_b"], jr_b=cfg["jr_b"],
                       jp=cfg["jp"], mu=cfg["mu"], u=cfg["u"], u_nn=cfg["unn"])


def _environment(command: str, cfg: Dict) -> Dict:
    """Usable cores, the BLAS numpy was built against, the thread variables
    as set, and the budget the command ran with: BLAS threads (the pool
    size read inside main's one-thread block; null when solves go through
    np.linalg.eig), solves at once in the process, and the bound dgeev
    symbol."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode argument
        blas = {}
    if command == "threshold":
        lanes = lapack.solve_lanes()
    elif command == "sweep":
        from .sweep import sweep_lanes
        lanes = sweep_lanes(cfg["workers"])
    else:
        lanes = 1
    return {"cores": lapack.usable_cores(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")},
            "blas_threads": lapack.get_threads(),
            "solve_lanes": lanes,
            "lapack": lapack.symbol()}


class Outcome(NamedTuple):
    """What a command returns for main to write: the sidecar's results, the
    CSV tables as (header, rows) keyed by file suffix ("" for <out>.csv),
    the timings, the diagnostics of its one eigendecomposition (None for
    commands that make none or many) and the summary line it prints."""

    results: Dict
    tables: Dict[str, Tuple[Sequence[str], Sequence[Sequence]]]
    timings: Dict
    diagnostics: Optional[Dict]
    summary: str


def _write_outputs(command: str, cfg: Dict, out: str, run: Outcome) -> None:
    """Write the tables as <out><suffix>.csv in order, then the sidecar
    <out>.json listing them, then print the summary and the paths."""
    paths = []
    for suffix, (header, rows) in run.tables.items():
        paths.append(f"{out}{suffix}.csv")
        _write_csv(paths[-1], header, rows)
    sidecar = f"{out}.json"
    _write_json(sidecar, {"command": command,
                          "config": cfg,
                          "results": run.results,
                          "outputs": paths,
                          "timings": run.timings,
                          "environment": _environment(command, cfg),
                          "diagnostics": run.diagnostics,
                          "versions": {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "nhladder": __version__}})
    print(f"{command}: {run.summary}")
    print("wrote", *paths, sidecar)


def _table(header: Sequence[str], records: Sequence[Dict]):
    """(header, rows) of each record's values under the header's names."""
    return header, [[record[key] for key in header] for record in records]


def _record(record, *skip: str) -> Dict:
    """A result dataclass's fields in declaration order, less those named in
    skip: the sidecar results of a command whose library call returns one."""
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record) if f.name not in skip}


def _diagonalize(cfg: Dict):
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    basis = sector_basis(params, capacity=cfg["capacity"])
    ham = build_hamiltonian(params, basis)
    t1 = time.perf_counter()
    result = eigendecompose(ham, capacity=cfg["capacity"])
    t2 = time.perf_counter()
    timings = {"build_s": t1 - t0, "eig_s": t2 - t1}
    return params, basis, result, timings


def _cluster_payload(clusters) -> List[Dict]:
    payload = []
    for cid, c in enumerate(clusters):
        payload.append({"id": cid, "label": c.label, "size": c.size,
                        "re_min": c.re_range[0], "re_max": c.re_range[1],
                        "max_im": c.max_im,
                        "representative": c.representative})
    return payload


def cmd_spectrum(cfg: Dict) -> Outcome:
    """Full spectrum with per-state observables."""
    params, basis, result, timings = _diagonalize(cfg)
    t0 = time.perf_counter()
    clusters = label_clusters(result, basis, select_clusters(
        result, params, cfg["gap_factor"], cfg["min_gap"])["all"])
    membership = {}
    for cid, c in enumerate(clusters):
        for m in c.members:
            membership[m] = (cid, c.label)
    pols = polarization_all(result.eigenvectors, basis)
    if params.particles == 2:
        ncors = correlation_ncor_all(result.eigenvectors, basis)
    else:
        ncors = np.full(result.dimension, math.nan)
    timings["observables_s"] = time.perf_counter() - t0

    rows = []
    for i in range(result.dimension):
        cid, label = membership[i]
        rows.append([i, result.eigenvalues[i].real, result.eigenvalues[i].imag,
                     float(pols[i]), float(ncors[i]), cid, label,
                     float(result.residuals[i])])
    header = ["index", "re_e", "im_e", "polarization", "ncor", "cluster_id",
              "cluster_label", "residual"]

    eps = cfg["eps_im"] if cfg["eps_im"] is not None \
        else default_eps_im(result.matrix_norm)
    max_im = float(np.max(np.abs(result.eigenvalues.imag)))
    results = {"dimension": result.dimension,
               "matrix_norm": result.matrix_norm,
               "eps_im": eps,
               "max_im": max_im,
               "spectrum_real": max_im <= eps,
               "clusters": _cluster_payload(clusters)}
    return Outcome(results, {"": (header, rows)}, timings, result.diagnostics,
                   f"dimension={result.dimension} max_im={max_im:.6g} "
                   f"eps_im={eps:.3g} clusters="
                   f"{[(c.label, c.size) for c in clusters]}")


def _selected_state(cfg: Dict):
    """Diagonalize and pick the state named by --select: max_im (largest
    |Im E|), index:K, or cluster:K (the representative, max-|Im E| member
    of cluster K). An index past the sector dimension is rejected before
    the solve; a cluster id needs the spectrum, so it is checked after.

    Returns params, basis, the state's eigenvector, the results dict opened
    with the state's index and eigenvalue, the timings and the solve's
    diagnostics."""
    kind, _, number = cfg["select"].partition(":")
    k = int(number or 0)
    if kind == "index":
        params = _params_from_config(cfg)
        dimension = basis_dimension(params.cells, params.particles,
                                    params.statistics)
        if k >= dimension:
            raise ValueError(f"select: state index {k} out of range "
                             f"0..{dimension - 1}")
    params, basis, result, timings = _diagonalize(cfg)
    if kind == "max_im":
        state = int(np.argmax(np.abs(result.eigenvalues.imag)))
    elif kind == "index":
        state = k
    else:
        clusters = select_clusters(result, params, cfg["gap_factor"],
                                   cfg["min_gap"])["all"]
        if k >= len(clusters):
            raise ValueError(f"cluster id {k} out of range "
                             f"0..{len(clusters) - 1}")
        state = clusters[k].representative
    results = {"state_index": state,
               "re_e": result.eigenvalues[state].real,
               "im_e": result.eigenvalues[state].imag}
    return (params, basis, result.eigenvectors[:, state], results, timings,
            result.diagnostics)


def cmd_density(cfg: Dict) -> Outcome:
    """Site or pair density of one state."""
    if cfg["kind"] == "pair" and cfg["particles"] < 2:
        raise ValueError(f"pair density needs at least two particles, "
                         f"got {cfg['particles']}")
    params, basis, vec, results, timings, diagnostics = _selected_state(cfg)
    if cfg["kind"] == "site":
        dens = site_density(vec, basis)
        table = (["site", "cell", "leg", "density"],
                 [[s, *site_cell_leg(s, params.cells), float(dens[s])]
                  for s in range(basis.nsites)])
        total = float(dens.sum())
    else:
        rho = pair_density(vec, basis)
        table = (["site1", "site2", "value"],
                 [[x1, x2, float(rho[x1, x2])]
                  for x1 in range(basis.nsites) for x2 in range(basis.nsites)])
        total = float(rho.sum())
    results.update(kind=cfg["kind"], total=total)
    return Outcome(results, {"": table}, timings, diagnostics,
                   f"state={results['state_index']} e=({results['re_e']:.6g}, "
                   f"{results['im_e']:.6g}) kind={cfg['kind']}")


def cmd_ncor(cfg: Dict) -> Outcome:
    """Pair participation of one state."""
    if cfg["particles"] != 2:
        raise ValueError(f"ncor needs exactly two particles, "
                         f"got {cfg['particles']}")
    params, basis, vec, results, timings, diagnostics = _selected_state(cfg)
    results["ncor"] = correlation_ncor(vec, basis)
    return Outcome(results, {}, timings, diagnostics,
                   f"state={results['state_index']} "
                   f"ncor={results['ncor']:.6g}")


def cmd_entropy(cfg: Dict) -> Outcome:
    """Cut entropies of one state."""
    left_half_sites(cfg["cells"])  # one cell has no left half to cut
    params, basis, vec, results, timings, diagnostics = _selected_state(cfg)
    results.update(cut_entropies(vec, basis))
    return Outcome(results, {}, timings, diagnostics,
                   f"state={results['state_index']} "
                   f"s_ab={results['s_ab']:.6g} "
                   f"s_leftright={results['s_leftright']:.6g}")


def cmd_sweep(cfg: Dict) -> Outcome:
    """Observables over a parameter grid."""
    from .sweep import Axis, SweepSpec
    params = _params_from_config(cfg)
    spec = SweepSpec(base=params, axes=tuple(Axis(*a) for a in cfg["axes"]),
                     observables=cfg["observables"], eps_im=cfg["eps_im"],
                     gap_factor=cfg["gap_factor"], min_gap=cfg["min_gap"],
                     threshold_selector=cfg["selector"],
                     threshold_bracket=cfg["bracket"],
                     threshold_resolution=cfg["resolution"])
    t0 = time.perf_counter()
    rows = _module.run_sweep(spec, workers=cfg["workers"],
                             capacity=cfg["capacity"])
    timings = {"sweep_s": time.perf_counter() - t0}
    header = list(rows[0].keys())
    failures = sum(1 for row in rows if row["error"])
    results = {"points": len(rows), "failures": failures, "columns": header}
    return Outcome(results, {"": _table(header, rows)}, timings, None,
                   f"{len(rows)} points, {failures} failures, "
                   f"columns={header}")


def cmd_threshold(cfg: Dict) -> Outcome:
    """Rung coupling where the spectrum turns complex."""
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    res = _module.find_threshold_jp(params, cluster_selector=cfg["selector"],
                                    eps_im=cfg["eps_im"],
                                    bracket=cfg["bracket"],
                                    resolution=cfg["resolution"],
                                    gap_factor=cfg["gap_factor"],
                                    min_gap=cfg["min_gap"],
                                    capacity=cfg["capacity"])
    timings = {"search_s": time.perf_counter() - t0}
    return Outcome(_record(res), {}, timings, None,
                   f"jp_star={res.jp_star:.6g} "
                   f"bracket=({res.bracket[0]:.6g}, {res.bracket[1]:.6g}) "
                   f"evaluations={res.evaluations}")


def cmd_effective(cfg: Dict) -> Outcome:
    """Bound-pair band versus the effective pair model."""
    from .perturb import validate_effective_model
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    report = validate_effective_model(params, capacity=cfg["capacity"],
                                      gap_factor=cfg["gap_factor"],
                                      min_gap=cfg["min_gap"])
    timings = {"validate_s": time.perf_counter() - t0}
    rows = [[i, f.real, f.imag, e.real, e.imag, abs(f - e)]
            for i, (f, e) in enumerate(zip(report.full_eigenvalues,
                                           report.effective_eigenvalues))]
    header = ["index", "re_full", "im_full", "re_eff", "im_eff", "abs_dev"]
    return Outcome(_record(report, "params"), {"": (header, rows)},
                   timings, None,
                   f"max_dev={report.max_dev:.6g} ratio={report.ratio:.6g} "
                   f"rung_coupling={report.rung_coupling:.6g}")


def cmd_eonsite(cfg: Dict) -> Outcome:
    """Diagonal-energy classes and crossings."""
    from .sweep import CROSSING_COLUMNS, eonsite_table
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    table = eonsite_table(params, cfg["mu_range"], capacity=cfg["capacity"])
    timings = {"table_s": time.perf_counter() - t0}
    tables = {"_classes": _table(list(table.classes[0]), table.classes),
              "_crossings": _table(CROSSING_COLUMNS, table.crossings)}
    return Outcome(_record(table), tables, timings, None,
                   f"{len(table.classes)} classes, {len(table.crossings)} "
                   f"crossings in mu range {cfg['mu_range']}")


COMMANDS = {"spectrum": cmd_spectrum, "density": cmd_density,
            "ncor": cmd_ncor, "entropy": cmd_entropy, "sweep": cmd_sweep,
            "threshold": cmd_threshold, "effective": cmd_effective,
            "eonsite": cmd_eonsite}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhladder",
        description="Exact diagonalization of a non-reciprocal two-leg ladder")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__, description=run.__doc__)
        p.add_argument("--config", help="JSON config file or result sidecar")
        for key, opt in _options_for(command).items():
            if opt.flag:
                p.add_argument(opt.flag, dest=key, help=opt.help,
                               choices=opt.choices or None,
                               action="append" if opt.repeat else "store")
        p.add_argument("--out", help="output prefix (default: command name)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        with lapack.threads(1):
            cfg = _resolve_config(args, command)
            _write_outputs(command, cfg, args.out or command,
                           COMMANDS[command](cfg))
        return 0
    except (CapacityError, MemoryError) as exc:
        # a sector within the capacity can still be too large for memory
        print(f"error (capacity): {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # ConvergenceError is a RuntimeError; LinAlgError, which LAPACK
        # raises on non-convergence, is a ValueError
        print(f"error (solver): {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
