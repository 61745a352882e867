"""Workload inputs and output checks.

A workload is a round of `nhladder` CLI commands made from the seed. A run
repeats whole rounds, so each command appears the same number of times and
the share of failed commands does not depend on the run length. Checks run
after the timed region; the independent computations (reference.py and
scipy) are made once per distinct command and reused across rounds.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import reference as ref

LADDER_DEFAULTS = {"jl": 1.0, "jr": 0.5, "jp": 0.0, "mu": 0.0, "u": 0.0,
                   "unn": 0.0}
SWEEP_OBSERVABLES = ("max_im_global,max_im_per_cluster,ncor_of_max_im_state,"
                     "polarization,entropies")


@dataclass
class Op:
    """One CLI command of a round. `items` is how many spectra, thresholds
    or sweep points it produces; `known_fault` names the one check that is
    expected to fail on it until the program is fixed."""

    command: str
    model: Dict
    items: int
    search: Optional[Dict] = None
    grid: Optional[Dict] = None
    known_fault: Optional[str] = None

    def argv(self, out: str, workers: int) -> List[str]:
        m = self.model
        argv = [self.command, "--cells", str(m["cells"]),
                "--particles", str(m["particles"]), "--stats", m["stats"],
                "--jl", repr(m["jl"]), "--jr", repr(m["jr"]),
                "--jp", repr(m["jp"]), "--mu", repr(m["mu"])]
        argv += (["--u", repr(m["u"])] if m["stats"] == "boson"
                 else ["--unn", repr(m["unn"])])
        if self.search:
            s = self.search
            argv += ["--bracket", f"{s['bracket'][0]!r}:{s['bracket'][1]!r}",
                     "--resolution", repr(s["resolution"])]
            if s["eps_im"] is not None:
                argv += ["--eps-im", repr(s["eps_im"])]
        if self.grid:
            for name, (start, stop, points) in self.grid.items():
                argv += ["--axis", f"{name}:{start!r}:{stop!r}:{points}"]
            argv += ["--observables", SWEEP_OBSERVABLES,
                     "--workers", str(workers)]
        return argv + ["--out", out]


def ladder(cells: int, particles: int, stats: str = "boson", **values) -> Dict:
    return {"cells": cells, "particles": particles, "stats": stats,
            **LADDER_DEFAULTS, **{k: float(v) for k, v in values.items()}}


# --- inputs -----------------------------------------------------------------

def spectrum_pair(rng: np.random.Generator) -> List[Op]:
    """Two-particle ladders at L=20: bosons (D=820) and fermions (D=780) at
    points drawn around the README example, and the detuned point of the
    size-transition criteria, where bands overlap and turn complex."""
    def near_readme():
        return {"jp": rng.uniform(0.008, 0.012), "mu": rng.uniform(0.0, 0.45)}

    return [Op("spectrum", ladder(20, 2, "boson", u=4.0, **near_readme()), 1),
            Op("spectrum", ladder(20, 2, "fermion", unn=4.0, **near_readme()), 1),
            Op("spectrum", ladder(20, 2, "boson", jp=0.01, mu=4.0, u=16.0), 1)]


def threshold_search(rng: np.random.Generator) -> List[Op]:
    """The three-boson searches of the size-transition criterion at L=6 and
    L=8 and the two-boson search at L=8. Their parameters are fixed; the
    seed sets the order of the searches in the round."""
    three = {"bracket": (0.1, 1.2), "resolution": 0.02, "eps_im": 1e-2}
    ops = [Op("threshold", ladder(6, 3, u=16.0, mu=16.0 / 3.0), 1, search=three),
           Op("threshold", ladder(8, 3, u=16.0, mu=16.0 / 3.0), 1, search=three),
           Op("threshold", ladder(8, 2, u=4.0, mu=0.2), 1,
              search={"bracket": (0.0, 0.1), "resolution": 1e-3,
                      "eps_im": None, "scan_below": True},
              known_fault="first-crossing")]
    return [ops[i] for i in rng.permutation(len(ops))]


def sweep_grid(rng: np.random.Generator) -> List[Op]:
    """A 4 x 5 mu-by-u grid at L=15, N=2 (D=465) with every per-point
    observable, run with one worker per usable core."""
    grid = {"mu": (rng.uniform(0.0, 0.1), rng.uniform(0.3, 0.45), 4),
            "u": (rng.uniform(2.0, 3.0), rng.uniform(5.0, 6.0), 5)}
    return [Op("sweep", ladder(15, 2, jp=rng.uniform(0.008, 0.012)), 20,
               grid=grid)]


# --- checks -----------------------------------------------------------------

def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_results(prefix: str) -> Dict:
    with open(f"{prefix}.json") as handle:
        return json.load(handle)["results"]


class Checker:
    """Checks the outputs of every command; caches independent results by
    command so repeated rounds cost one reference computation."""

    def __init__(self):
        self._cache: Dict = {}

    def _once(self, key, compute: Callable):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, op: Op, prefix: str) -> List[str]:
        """Names of the checks the command's outputs fail."""
        return {"spectrum": self._spectrum, "threshold": self._threshold,
                "sweep": self._sweep}[op.command](op, prefix)

    def _spectrum(self, op: Op, prefix: str) -> List[str]:
        m = op.model
        key = ("spectrum", json.dumps(m, sort_keys=True))

        def reference():
            import scipy.linalg

            h = ref.dense_hamiltonian(m)
            return {"trace": ref.trace(m), "dim": h.shape[0],
                    "norm": float(np.max(np.sum(np.abs(h), axis=1))),
                    "eigvals": scipy.linalg.eigvals(h)}

        want = self._once(key, reference)
        rows = _read_csv(f"{prefix}.csv")
        if len(rows) != want["dim"]:
            return ["dimension"]
        values = np.array([complex(float(r["re_e"]), float(r["im_e"])) for r in rows])
        pol = np.array([float(r["polarization"]) for r in rows])
        ncor = np.array([float(r["ncor"]) for r in rows])
        failed = []
        scale = max(want["norm"], 1.0)
        if abs(math.fsum(values.real) - want["trace"]) > 1e-12 * scale * want["dim"] \
                or abs(math.fsum(values.imag)) > 1e-12 * scale * want["dim"]:
            failed.append("trace")
        if ref.multiset_gap(values, want["eigvals"]) > 1e-9 * scale:
            failed.append("scipy-eigvals")
        if ref.multiset_gap(values, np.conj(values)) > 1e-10:
            failed.append("conjugate-closure")
        if np.any(np.abs(pol) > 1.0 + 1e-12):
            failed.append("polarization-range")
        pair_energy = m["u"] if m["stats"] == "boson" else m["unn"]
        bound = np.abs(values.real - pair_energy) < np.abs(values.real)
        if np.any(ncor[bound] > 4.0 * (1.0 - 1.0 / m["cells"]) + 1e-6):
            failed.append("bound-ncor")
        return failed

    def _threshold(self, op: Op, prefix: str) -> List[str]:
        res = _read_results(prefix)
        s = op.search
        lo, hi = res["bracket"]
        eps = res["eps_im"]
        failed = []
        if not (hi - lo <= s["resolution"] * (1 + 1e-12) and res["jp_star"] == hi):
            failed.append("bracket-width")

        def max_im(jp):
            return self._once(("max_im", json.dumps(op.model, sort_keys=True), jp),
                              lambda: ref.max_abs_imag({**op.model, "jp": jp}))

        if max_im(lo) > eps:
            failed.append("real-below")
        if max_im(hi) <= eps:
            failed.append("complex-at-threshold")
        if s.get("scan_below"):
            # steps a tenth of the resolution: a window narrower than the
            # resolution between two real scan points is still seen
            step = s["resolution"] / 10.0
            start = s["bracket"][0]
            count = int(math.floor((lo - start) / step))
            if any(max_im(start + k * step) > eps for k in range(1, count + 1)):
                failed.append("first-crossing")
        return failed

    def _sweep(self, op: Op, prefix: str) -> List[str]:
        rows = _read_csv(f"{prefix}.csv")
        m = op.model
        if len(rows) != op.items:
            return ["row-count"]
        failed = []
        if any(r["error"] for r in rows):
            failed.append("error-column")
        for r in (rows[0], rows[-1]):
            point = {**m, "mu": float(r["mu"]), "u": float(r["u"])}
            want = self._once(("max_im", json.dumps(point, sort_keys=True)),
                              lambda: ref.max_abs_imag(point))
            if abs(float(r["max_im_global"]) - want) > 1e-6:
                failed.append("max-im-global")
        cells, n, stats = m["cells"], m["particles"], m["stats"]
        leg_cut = math.log(ref.subsystem_configs(cells, n, stats))
        half = cells // 2
        half_cut = math.log(min(ref.subsystem_configs(2 * half, n, stats),
                                ref.subsystem_configs(2 * (cells - half), n, stats)))
        for r in rows:
            s_ab, s_lr = float(r["s_ab"]), float(r["s_leftright"])
            if not (-1e-12 <= s_ab <= leg_cut + 1e-9 and -1e-12 <= s_lr <= half_cut + 1e-9):
                failed.append("entropy-range")
            fracs = (float(r["rho_a_frac"]), float(r["rho_left_frac"]))
            if not all(-1e-12 <= f <= 1.0 + 1e-12 for f in fracs):
                failed.append("fraction-range")
        return sorted(set(failed))


WORKLOADS = {"spectrum-pair": spectrum_pair,
             "threshold-search": threshold_search,
             "sweep-grid": sweep_grid}


def round_ops(name: str, seed: int) -> List[Op]:
    return WORKLOADS[name](np.random.default_rng(seed))


def output_bytes(prefix: str) -> int:
    folder, stem = os.path.split(prefix)
    return sum(os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder)
               if f.startswith(stem + ".") or f.startswith(stem + "_"))
