"""Spans around the calls into each nhladder layer, recorded from outside.

The package imports its layer functions by name (`from .eig import
eigendecompose`), so a call from `cli` or `sweep` into another layer goes
through that module's own global. `Tracer.install` swaps those globals for
timing wrappers and `Tracer.uninstall` puts the originals back; the
package's files are not changed. Spans stay in memory until `write`.

Worker processes of a parallel sweep inherit the wrappers but their spans
stay in the worker, so layer times below `sweep.run_sweep` come from a
serial replay of the grid (see run.py).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

# span name -> (module, attribute) pairs whose global is wrapped. Each is a
# call that crosses from one layer (cli, sweep) into another.
PATCH_SITES = {
    "fock.sector_basis": (("cli", "sector_basis"), ("sweep", "sector_basis")),
    "model.build_hamiltonian": (("cli", "build_hamiltonian"),
                                ("sweep", "build_hamiltonian")),
    "eig.eigendecompose": (("cli", "eigendecompose"), ("sweep", "eigendecompose")),
    "observables.label_clusters": (("cli", "label_clusters"),),
    "observables.polarization_all": (("cli", "polarization_all"),),
    "observables.correlation_ncor_all": (("cli", "correlation_ncor_all"),),
    "observables.correlation_ncor": (("sweep", "correlation_ncor"),),
    "observables.entanglement_entropy": (("sweep", "entanglement_entropy"),),
    "observables.polarization": (("sweep", "polarization"),),
    "observables.site_density": (("sweep", "site_density"),),
    "observables.cluster_spectrum": (("sweep", "cluster_spectrum"),),
    "sweep.find_threshold_jp": (("cli", "find_threshold_jp"),
                                ("sweep", "find_threshold_jp")),
    "sweep.run_sweep": (("cli", "run_sweep"),),
}

# Stated flop count of one dense nonsymmetric eigendecomposition with
# eigenvectors: real Schur form with the accumulated transformation,
# about 25 n^3 (Golub & Van Loan, Matrix Computations, 4th ed., 7.5.6).
EIG_FLOPS_PER_N3 = 25.0


def _dimension(args, kwargs) -> int:
    operator = args[0] if args else kwargs["operator"]
    return int(getattr(operator, "dimension", None) or operator.shape[0])


class Tracer:
    """In-memory span recorder: each span has an id, name, parent id,
    root id (the CLI call it belongs to), start and end in seconds."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._saved: List = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "root": self.spans[parent]["root"] if parent is not None
                  else len(self.spans),
                  "start": time.perf_counter(), "end": None}
        if name == "eig.eigendecompose":
            record["n"] = _dimension(args, kwargs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self, package) -> None:
        for name, sites in PATCH_SITES.items():
            for module_name, attr in sites:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str, extra: Optional[Dict] = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)
            handle.write("\n")


def _duration(span: Dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: List[Dict], items: int) -> Dict[str, float]:
    """Per-layer figures per item (spectrum, threshold or sweep point).

    Times are inclusive span durations; `cli.self_s` is the `cli.main`
    span minus the layer spans directly inside it.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    child_time: Dict[int, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + _duration(span)
        counts[span["name"]] = counts.get(span["name"], 0) + 1
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + _duration(span))
    cli_self = sum(_duration(s) - child_time.get(s["id"], 0.0)
                   for s in spans if s["name"] == "cli.main")
    eig_spans = [s for s in spans if s["name"] == "eig.eigendecompose"]
    eig_time = sum(_duration(s) for s in eig_spans)
    flops = sum(EIG_FLOPS_PER_N3 * s["n"] ** 3 for s in eig_spans)
    by_id = {s["id"]: s for s in spans}

    def under_search(span: Dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == "sweep.find_threshold_jp":
                return True
            parent = by_id[parent]["parent"]
        return False

    evaluations = sum(1 for s in eig_spans if under_search(s))
    per = 1.0 / items
    out = {f"{name}_s": totals.get(name, 0.0) * per
           for name in ("fock.sector_basis", "model.build_hamiltonian",
                        "eig.eigendecompose",
                        "observables.correlation_ncor_all",
                        "observables.label_clusters",
                        "observables.polarization_all",
                        "observables.entanglement_entropy",
                        "observables.correlation_ncor",
                        "sweep.find_threshold_jp", "sweep.run_sweep")}
    out["model.build_calls"] = counts.get("model.build_hamiltonian", 0) * per
    out["eig.calls"] = len(eig_spans) * per
    out["eig.gflops_computed"] = flops / eig_time / 1e9 if eig_time else 0.0
    searches = counts.get("sweep.find_threshold_jp", 0)
    out["sweep.threshold_evaluations"] = evaluations / searches if searches else 0.0
    out["cli.self_s"] = cli_self * per
    return out
