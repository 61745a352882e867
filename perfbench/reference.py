"""Independent ladder Hamiltonian used to check the program's outputs.

Nothing here imports nhladder. The occupations are enumerated by a
recursive split of the particles over the sites, and the matrix is
assembled densely from the model as the package README states it: on
leg A (sites 0..L-1) `-jl` moves a particle one cell left and `-jr` one
cell right, leg B (sites L..2L-1) has the two amplitudes swapped, every
rung hops with `+jp` both ways, and the diagonal is
`mu (N_A - N_B)` plus `u/2 sum n(n-1)` for bosons or `unn` times the
number of occupied nearest-neighbour pairs along each leg for fermions.
Spectra do not depend on the order of the basis, so eigenvalues computed
here can be compared with the program's as multisets.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

Occupation = Tuple[int, ...]


def occupations(nsites: int, particles: int, stats: str) -> List[Occupation]:
    """Every occupation of `nsites` sites by `particles` particles."""
    cap = particles if stats == "boson" else 1
    out: List[Occupation] = []

    def fill(prefix: List[int], left: int) -> None:
        site = len(prefix)
        if site == nsites:
            if left == 0:
                out.append(tuple(prefix))
            return
        for n in range(min(cap, left) + 1):
            prefix.append(n)
            fill(prefix, left - n)
            prefix.pop()

    fill([], particles)
    return out


def diagonal_energy(occ: Occupation, cells: int, model: Dict) -> float:
    leg_a, leg_b = occ[:cells], occ[cells:]
    energy = model["mu"] * (sum(leg_a) - sum(leg_b))
    if model["stats"] == "boson":
        energy += 0.5 * model["u"] * sum(n * (n - 1) for n in occ)
    else:
        pairs = sum(leg[x] * leg[x + 1] for leg in (leg_a, leg_b)
                    for x in range(cells - 1))
        energy += model["unn"] * pairs
    return energy


def trace(model: Dict) -> float:
    """Sum of the diagonal energies over every occupation."""
    cells = model["cells"]
    return math.fsum(diagonal_energy(occ, cells, model) for occ in
                     occupations(2 * cells, model["particles"], model["stats"]))


def _hops(model: Dict) -> List[Tuple[int, int, float]]:
    """(from_site, to_site, amplitude) for every one-particle move."""
    cells, jl, jr, jp = model["cells"], model["jl"], model["jr"], model["jp"]
    hops = []
    for offset, left, right in ((0, jl, jr), (cells, jr, jl)):
        for x in range(cells - 1):
            a, b = offset + x, offset + x + 1
            hops.append((b, a, -left))
            hops.append((a, b, -right))
    for x in range(cells):
        hops.append((x, cells + x, jp))
        hops.append((cells + x, x, jp))
    return hops


def dense_hamiltonian(model: Dict) -> np.ndarray:
    """The many-body Hamiltonian as a dense real matrix."""
    cells = model["cells"]
    boson = model["stats"] == "boson"
    states = occupations(2 * cells, model["particles"], model["stats"])
    index = {occ: i for i, occ in enumerate(states)}
    hops = _hops(model)
    h = np.zeros((len(states), len(states)))
    for col, occ in enumerate(states):
        h[col, col] = diagonal_energy(occ, cells, model)
        for src, dst, amp in hops:
            if occ[src] == 0 or (not boson and occ[dst] == 1):
                continue
            moved = list(occ)
            moved[src] -= 1
            moved[dst] += 1
            if boson:
                factor = math.sqrt(occ[src] * (occ[dst] + 1))
            else:
                lo, hi = min(src, dst), max(src, dst)
                factor = -1.0 if sum(occ[lo + 1:hi]) % 2 else 1.0
            h[index[tuple(moved)], col] += amp * factor
    return h


def max_abs_imag(model: Dict) -> float:
    import scipy.linalg

    return float(np.max(np.abs(scipy.linalg.eigvals(dense_hamiltonian(model)).imag)))


def multiset_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between paired values under the best pairing."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, np.newaxis] - b[np.newaxis, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def subsystem_configs(nsites: int, particles: int, stats: str) -> int:
    """Number of occupations of `nsites` sites holding 0..particles
    particles: the largest rank a reduced state on those sites can have."""
    if stats == "boson":
        return sum(math.comb(nsites + n - 1, n) for n in range(particles + 1))
    return sum(math.comb(nsites, n) for n in range(min(particles, nsites) + 1))
