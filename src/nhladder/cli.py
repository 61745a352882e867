"""Command line interface.

Subcommands: spectrum, density, ncor, entropy, sweep, threshold, effective,
eonsite. Parameters resolve in three layers: built-in defaults, then a JSON
config file (--config), then explicit flags. Passing a result sidecar JSON
as --config reruns its stored configuration. Every command writes CSV and/or
JSON outputs plus a sidecar named <out>.json holding the resolved config,
headline results, timings, and library versions.

Exit codes: 0 success, 2 configuration or parameter errors, 3 capacity
overruns, 4 solver or verification failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .eig import ConvergenceError, default_eps_im, eigendecompose
from .fock import CapacityError, site_cell_leg
from .model import ModelParams, build_hamiltonian, sector_basis
from .observables import (cluster_spectrum, correlation_ncor,
                          correlation_ncor_all, default_min_gap,
                          label_clusters, pair_density, polarization_all,
                          site_density)
from .perturb import ResonanceError, validate_effective_model
from .sweep import (Axis, SweepSpec, cut_entropies, eonsite_table,
                    find_threshold_jp, run_sweep)

MODEL_KEYS = ("cells", "particles", "stats", "jl", "jr", "j", "alpha",
              "jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu", "u", "unn",
              "eps_im", "workers", "gap_factor", "min_gap", "capacity")
COMMAND_KEYS = {
    "spectrum": (),
    "density": ("select", "kind"),
    "ncor": ("select",),
    "entropy": ("select",),
    "sweep": ("axes", "observables", "selector", "bracket", "resolution"),
    "threshold": ("selector", "bracket", "resolution"),
    "effective": (),
    "eonsite": ("mu_range",),
}
COMMAND_DEFAULTS = {
    "select": "max_im",
    "kind": "site",
    "axes": None,
    "observables": ["max_im_global"],
    "selector": "all",
    "bracket": [0.0, 0.1],
    "resolution": 1e-3,
    "mu_range": None,
}


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
    allowed = set(MODEL_KEYS) | set(COMMAND_KEYS[command])
    cfg: Dict = {key: None for key in MODEL_KEYS}
    cfg.update({"stats": "boson", "jp": 0.0, "mu": 0.0, "u": 0.0, "unn": 0.0,
                "workers": 1, "gap_factor": 10.0})
    for key in COMMAND_KEYS[command]:
        cfg[key] = COMMAND_DEFAULTS[key]

    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - allowed
        if unknown:
            raise ValueError(f"unknown config keys for {command}: "
                             f"{sorted(unknown)}")
        cfg.update(file_cfg)

    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value

    _finalize_amplitudes(cfg)
    for key in ("cells", "particles"):
        if cfg[key] is None:
            raise ValueError(f"{key} is required (flag --{key} or config)")
    cfg["cells"] = int(cfg["cells"])
    cfg["particles"] = int(cfg["particles"])
    if cfg["workers"] is None:
        cfg["workers"] = 1
    cfg["workers"] = int(cfg["workers"])
    if cfg["capacity"] is not None:
        cfg["capacity"] = int(cfg["capacity"])
    return cfg


def _finalize_amplitudes(cfg: Dict) -> None:
    """Reduce the accepted amplitude spellings to per-leg values.

    Either (j, alpha), or the shorthand (jl, jr) for leg A mirrored onto
    leg B, or explicit per-leg keys. j defaults to exp(-alpha), which
    normalizes the larger amplitude to one; alpha defaults to zero.
    """
    pair_keys = ("jl", "jr", "jl_a", "jr_a", "jl_b", "jr_b")
    uses_pairs = any(cfg.get(k) is not None for k in pair_keys)
    uses_j_alpha = cfg.get("j") is not None or cfg.get("alpha") is not None
    if uses_pairs and uses_j_alpha:
        raise ValueError("give either j/alpha or explicit hop amplitudes, not both")
    if uses_j_alpha:
        alpha = float(cfg["alpha"]) if cfg.get("alpha") is not None else 0.0
        j = float(cfg["j"]) if cfg.get("j") is not None else math.exp(-alpha)
        jl, jr = j * math.exp(alpha), j * math.exp(-alpha)
        cfg["jl_a"], cfg["jr_a"], cfg["jl_b"], cfg["jr_b"] = jl, jr, jr, jl
    else:
        jl = float(cfg["jl"]) if cfg.get("jl") is not None else 1.0
        jr = float(cfg["jr"]) if cfg.get("jr") is not None else 0.5
        for key, fallback in (("jl_a", jl), ("jr_a", jr),
                              ("jl_b", jr), ("jr_b", jl)):
            cfg[key] = float(cfg[key]) if cfg.get(key) is not None else fallback
    for key in ("j", "alpha", "jl", "jr"):
        cfg.pop(key, None)


def _params_from_config(cfg: Dict) -> ModelParams:
    return ModelParams(cells=cfg["cells"], particles=cfg["particles"],
                       statistics=cfg["stats"],
                       jl_a=cfg["jl_a"], jr_a=cfg["jr_a"],
                       jl_b=cfg["jl_b"], jr_b=cfg["jr_b"],
                       jp=float(cfg["jp"]), mu=float(cfg["mu"]),
                       u=float(cfg["u"]), u_nn=float(cfg["unn"]))


def _min_gap_from(cfg: Dict, params: ModelParams) -> float:
    if cfg.get("min_gap") is not None:
        return float(cfg["min_gap"])
    return default_min_gap(params.jl_a, params.jr_a)


def _sidecar(out: str, command: str, cfg: Dict, results: Dict,
             outputs: List[str], timings: Dict) -> str:
    path = f"{out}.json"
    payload = {"command": command,
               "config": {k: v for k, v in cfg.items()},
               "results": results,
               "outputs": outputs,
               "timings": timings,
               "environment": _environment(),
               "versions": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "nhladder": __version__}}
    _write_json(path, payload)
    return path


def _environment() -> Dict:
    """Usable cores, the BLAS numpy was built against, and the thread
    variables as set; recorded only, never changed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode argument
        blas = {}
    return {"cores": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}}


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


def _cluster_payload(clusters, result) -> List[Dict]:
    payload = []
    for cid, c in enumerate(clusters):
        payload.append({"id": cid, "label": c.label, "size": c.size,
                        "re_min": c.re_range[0], "re_max": c.re_range[1],
                        "max_im": c.max_im,
                        "representative": c.representative})
    return payload


def cmd_spectrum(cfg: Dict, out: str) -> int:
    params, basis, result, timings = _diagonalize(cfg)
    t0 = time.perf_counter()
    min_gap = _min_gap_from(cfg, params)
    clusters = label_clusters(result, basis, gap_factor=cfg["gap_factor"],
                              min_gap=min_gap)
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
    csv_path = f"{out}.csv"
    _write_csv(csv_path, ["index", "re_e", "im_e", "polarization", "ncor",
                          "cluster_id", "cluster_label", "residual"], rows)

    eps = cfg["eps_im"] if cfg["eps_im"] is not None \
        else default_eps_im(result.matrix_norm)
    max_im = float(np.max(np.abs(result.eigenvalues.imag)))
    results = {"dimension": result.dimension,
               "matrix_norm": result.matrix_norm,
               "eps_im": eps,
               "max_im": max_im,
               "spectrum_real": max_im <= eps,
               "clusters": _cluster_payload(clusters, result)}
    sidecar = _sidecar(out, "spectrum", cfg, results, [csv_path], timings)
    print(f"spectrum: dimension={result.dimension} max_im={max_im:.6g} "
          f"eps_im={eps:.3g} clusters="
          f"{[(c['label'], c['size']) for c in results['clusters']]}")
    print(f"wrote {csv_path} {sidecar}")
    return 0


def _selected_state(cfg: Dict):
    """Diagonalize and pick the state named by --select: max_im (largest
    |Im E|), index:K, or cluster:K (the max-|Im E| member of cluster K).

    Returns params, basis, the state's eigenvector, the results dict opened
    with the state's index and eigenvalue, and the timings."""
    params, basis, result, timings = _diagonalize(cfg)
    selector = cfg["select"]
    ims = np.abs(result.eigenvalues.imag)
    if selector == "max_im":
        state = int(np.argmax(ims))
    elif selector.startswith("index:"):
        state = int(selector.split(":", 1)[1])
        if not 0 <= state < result.dimension:
            raise ValueError(f"state index {state} out of range "
                             f"0..{result.dimension - 1}")
    elif selector.startswith("cluster:"):
        clusters = cluster_spectrum(result, gap_factor=cfg["gap_factor"],
                                    min_gap=_min_gap_from(cfg, params))
        cluster_id = int(selector.split(":", 1)[1])
        if not 0 <= cluster_id < len(clusters):
            raise ValueError(f"cluster id {cluster_id} out of range "
                             f"0..{len(clusters) - 1}")
        members = np.asarray(clusters[cluster_id].members)
        state = int(members[np.argmax(ims[members])])
    else:
        raise ValueError(f"selector must be 'max_im', 'index:K', or "
                         f"'cluster:K', got {selector!r}")
    results = {"state_index": state,
               "re_e": result.eigenvalues[state].real,
               "im_e": result.eigenvalues[state].imag}
    return params, basis, result.eigenvectors[:, state], results, timings


def cmd_density(cfg: Dict, out: str) -> int:
    params, basis, vec, results, timings = _selected_state(cfg)
    csv_path = f"{out}.csv"
    if cfg["kind"] == "site":
        dens = site_density(vec, basis)
        rows = [[s, *site_cell_leg(s, params.cells), float(dens[s])]
                for s in range(basis.nsites)]
        _write_csv(csv_path, ["site", "cell", "leg", "density"], rows)
        total = float(dens.sum())
    elif cfg["kind"] == "pair":
        rho = pair_density(vec, basis)
        rows = [[x1, x2, float(rho[x1, x2])]
                for x1 in range(basis.nsites) for x2 in range(basis.nsites)]
        _write_csv(csv_path, ["site1", "site2", "value"], rows)
        total = float(rho.sum())
    else:
        raise ValueError(f"kind must be 'site' or 'pair', got {cfg['kind']!r}")
    results.update(kind=cfg["kind"], total=total)
    sidecar = _sidecar(out, "density", cfg, results, [csv_path], timings)
    print(f"density: state={results['state_index']} e=({results['re_e']:.6g}, "
          f"{results['im_e']:.6g}) kind={cfg['kind']}")
    print(f"wrote {csv_path} {sidecar}")
    return 0


def cmd_ncor(cfg: Dict, out: str) -> int:
    params, basis, vec, results, timings = _selected_state(cfg)
    results["ncor"] = correlation_ncor(vec, basis)
    sidecar = _sidecar(out, "ncor", cfg, results, [], timings)
    print(f"ncor: state={results['state_index']} "
          f"ncor={results['ncor']:.6g}")
    print(f"wrote {sidecar}")
    return 0


def cmd_entropy(cfg: Dict, out: str) -> int:
    params, basis, vec, results, timings = _selected_state(cfg)
    results.update(cut_entropies(vec, basis))
    sidecar = _sidecar(out, "entropy", cfg, results, [], timings)
    print(f"entropy: state={results['state_index']} "
          f"s_ab={results['s_ab']:.6g} "
          f"s_leftright={results['s_leftright']:.6g}")
    print(f"wrote {sidecar}")
    return 0


def _parse_axes(cfg: Dict) -> Tuple[Axis, ...]:
    axes_cfg = cfg.get("axes")
    if not axes_cfg:
        raise ValueError("sweep requires at least one --axis name:start:stop:points")
    axes = []
    for entry in axes_cfg:
        if isinstance(entry, str):
            parts = entry.split(":")
            if len(parts) != 4:
                raise ValueError(f"axis must be name:start:stop:points, "
                                 f"got {entry!r}")
            axes.append(Axis(parts[0], float(parts[1]), float(parts[2]),
                             int(parts[3])))
        else:
            name, start, stop, points = entry
            axes.append(Axis(str(name), float(start), float(stop), int(points)))
    return tuple(axes)


def cmd_sweep(cfg: Dict, out: str) -> int:
    params = _params_from_config(cfg)
    axes = _parse_axes(cfg)
    observables = cfg["observables"]
    if isinstance(observables, str):
        observables = [o.strip() for o in observables.split(",") if o.strip()]
    spec = SweepSpec(base=params, axes=axes, observables=tuple(observables),
                     eps_im=cfg["eps_im"], gap_factor=cfg["gap_factor"],
                     min_gap=cfg["min_gap"],
                     threshold_selector=cfg["selector"],
                     threshold_bracket=(float(cfg["bracket"][0]),
                                        float(cfg["bracket"][1])),
                     threshold_resolution=float(cfg["resolution"]))
    t0 = time.perf_counter()
    rows = run_sweep(spec, workers=cfg["workers"], capacity=cfg["capacity"])
    timings = {"sweep_s": time.perf_counter() - t0}
    header = list(rows[0].keys())
    csv_path = f"{out}.csv"
    _write_csv(csv_path, header, [[row[k] for k in header] for row in rows])
    failures = sum(1 for row in rows if row["error"])
    cfg_store = dict(cfg)
    cfg_store["axes"] = [[a.name, a.start, a.stop, a.points] for a in axes]
    cfg_store["observables"] = list(observables)
    results = {"points": len(rows), "failures": failures, "columns": header}
    sidecar = _sidecar(out, "sweep", cfg_store, results, [csv_path], timings)
    print(f"sweep: {len(rows)} points, {failures} failures, "
          f"columns={header}")
    print(f"wrote {csv_path} {sidecar}")
    return 0


def cmd_threshold(cfg: Dict, out: str) -> int:
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    res = find_threshold_jp(params, cluster_selector=cfg["selector"],
                            eps_im=cfg["eps_im"],
                            bracket=(float(cfg["bracket"][0]),
                                     float(cfg["bracket"][1])),
                            resolution=float(cfg["resolution"]),
                            gap_factor=cfg["gap_factor"],
                            min_gap=cfg["min_gap"],
                            capacity=cfg["capacity"])
    timings = {"search_s": time.perf_counter() - t0}
    results = {"jp_star": res.jp_star,
               "bracket": list(res.bracket),
               "eps_im": res.eps_im,
               "evaluations": res.evaluations,
               "used_fallback": res.used_fallback}
    sidecar = _sidecar(out, "threshold", cfg, results, [], timings)
    print(f"threshold: jp_star={res.jp_star:.6g} "
          f"bracket=({res.bracket[0]:.6g}, {res.bracket[1]:.6g}) "
          f"evaluations={res.evaluations}")
    print(f"wrote {sidecar}")
    return 0


def cmd_effective(cfg: Dict, out: str) -> int:
    params = _params_from_config(cfg)
    t0 = time.perf_counter()
    report = validate_effective_model(params, capacity=cfg["capacity"])
    timings = {"validate_s": time.perf_counter() - t0}
    rows = []
    for i, (f, e) in enumerate(zip(report.full_eigenvalues,
                                   report.effective_eigenvalues)):
        rows.append([i, f.real, f.imag, e.real, e.imag, abs(f - e)])
    csv_path = f"{out}.csv"
    _write_csv(csv_path, ["index", "re_full", "im_full", "re_eff", "im_eff",
                          "abs_dev"], rows)
    results = {"max_dev": report.max_dev,
               "max_dev_abs": report.max_dev_abs,
               "doubled_max_dev": report.doubled_max_dev,
               "ratio": report.ratio,
               "rung_coupling": report.rung_coupling,
               "full_eigenvalues": report.full_eigenvalues,
               "effective_eigenvalues": report.effective_eigenvalues}
    sidecar = _sidecar(out, "effective", cfg, results, [csv_path], timings)
    print(f"effective: max_dev={report.max_dev:.6g} ratio={report.ratio:.6g} "
          f"rung_coupling={report.rung_coupling:.6g}")
    print(f"wrote {csv_path} {sidecar}")
    return 0


def cmd_eonsite(cfg: Dict, out: str) -> int:
    params = _params_from_config(cfg)
    mu_range = cfg.get("mu_range")
    if mu_range is None:
        raise ValueError("eonsite requires --mu-range lo:hi")
    t0 = time.perf_counter()
    table = eonsite_table(params, (float(mu_range[0]), float(mu_range[1])),
                          capacity=cfg["capacity"])
    timings = {"table_s": time.perf_counter() - t0}
    quanta_name = "pairs" if params.statistics == "boson" else "adjacency"
    classes_path = f"{out}_classes.csv"
    _write_csv(classes_path,
               ["class_id", quanta_name, "delta_n", "e_int", "population"],
               [[r["class_id"], r[quanta_name], r["delta_n"], r["e_int"],
                 r["population"]] for r in table.classes])
    crossings_path = f"{out}_crossings.csv"
    _write_csv(crossings_path,
               ["class_i", "class_j", "mu_star", "order", "e_at_crossing"],
               [[r["class_i"], r["class_j"], r["mu_star"], r["order"],
                 r["e_at_crossing"]] for r in table.crossings])
    results = {"classes": table.classes, "crossings": table.crossings}
    sidecar = _sidecar(out, "eonsite", cfg, results,
                       [classes_path, crossings_path], timings)
    print(f"eonsite: {len(table.classes)} classes, "
          f"{len(table.crossings)} crossings in mu range {mu_range}")
    print(f"wrote {classes_path} {crossings_path} {sidecar}")
    return 0


COMMANDS = {"spectrum": cmd_spectrum, "density": cmd_density,
            "ncor": cmd_ncor, "entropy": cmd_entropy, "sweep": cmd_sweep,
            "threshold": cmd_threshold, "effective": cmd_effective,
            "eonsite": cmd_eonsite}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file or result sidecar")
    common.add_argument("--cells", type=int, help="number of ladder cells L")
    common.add_argument("--particles", type=int, help="particle number N")
    common.add_argument("--stats", choices=["boson", "fermion"])
    common.add_argument("--jl", type=float,
                        help="leg A left-moving amplitude (leg B mirrored)")
    common.add_argument("--jr", type=float,
                        help="leg A right-moving amplitude (leg B mirrored)")
    common.add_argument("--j", type=float, help="symmetric hop scale")
    common.add_argument("--alpha", type=float, help="hop imbalance exponent")
    common.add_argument("--jp", type=float, help="rung coupling")
    common.add_argument("--mu", type=float, help="leg imbalance potential")
    common.add_argument("--u", type=float, help="boson on-site repulsion")
    common.add_argument("--unn", type=float,
                        help="fermion nearest-neighbor repulsion")
    common.add_argument("--eps-im", dest="eps_im", type=float,
                        help="reality threshold on |Im E|")
    common.add_argument("--workers", type=int, help="parallel worker processes")
    common.add_argument("--gap-factor", dest="gap_factor", type=float)
    common.add_argument("--min-gap", dest="min_gap", type=float)
    common.add_argument("--capacity", type=int, help="basis size budget")
    common.add_argument("--out", help="output path prefix (default: command name)")

    parser = argparse.ArgumentParser(
        prog="nhladder",
        description="Exact diagonalization of a non-reciprocal two-leg ladder")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", parents=[common],
                   help="full spectrum with per-state observables")
    p_density = sub.add_parser("density", parents=[common],
                               help="site or pair density of one state")
    p_density.add_argument("--select", help="max_im | index:K | cluster:K")
    p_density.add_argument("--kind", choices=["site", "pair"])
    p_ncor = sub.add_parser("ncor", parents=[common],
                            help="pair participation of one state")
    p_ncor.add_argument("--select")
    p_entropy = sub.add_parser("entropy", parents=[common],
                               help="cut entropies of one state")
    p_entropy.add_argument("--select")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="observables over a parameter grid")
    p_sweep.add_argument("--axis", dest="axes", action="append",
                         help="name:start:stop:points (repeat for 2 axes)")
    p_sweep.add_argument("--observables",
                         help="comma list: max_im_global, max_im_per_cluster, "
                              "ncor_of_max_im_state, polarization, entropies, "
                              "threshold")
    p_sweep.add_argument("--selector", choices=["all", "scattering", "bound"])
    p_sweep.add_argument("--bracket", type=_parse_range,
                         help="lo:hi for threshold observable")
    p_sweep.add_argument("--resolution", type=float)
    p_thr = sub.add_parser("threshold", parents=[common],
                           help="rung coupling where the spectrum turns complex")
    p_thr.add_argument("--selector", choices=["all", "scattering", "bound"])
    p_thr.add_argument("--bracket", type=_parse_range, help="lo:hi")
    p_thr.add_argument("--resolution", type=float)
    sub.add_parser("effective", parents=[common],
                   help="bound-pair band versus the effective pair model")
    p_eon = sub.add_parser("eonsite", parents=[common],
                           help="diagonal-energy classes and crossings")
    p_eon.add_argument("--mu-range", dest="mu_range", type=_parse_range,
                       help="lo:hi window for crossings")
    return parser


def _parse_range(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return [float(parts[0]), float(parts[1])]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        cfg = _resolve_config(args, command)
        out = args.out if args.out else command
        return COMMANDS[command](cfg, out)
    except CapacityError as exc:
        print(f"error (capacity): {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 4
    except (ResonanceError, ValueError, KeyError, OSError) as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
