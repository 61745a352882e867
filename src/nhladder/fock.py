"""Occupation-number basis for a two-leg ladder at fixed particle number.

Site convention: a ladder with L cells has 2L sites. Combined site indices
run 0..2L-1 with leg A first, so cell x (1-based) on leg A maps to x-1 and
cell x on leg B maps to L+x-1. A basis state is one row of
`Basis.occupations`, a (D, 2L) array of occupation numbers. Rows are listed
in descending lexicographic order, which makes the N=1 basis index coincide
with the combined site index. The kernels act on whole arrays of rows:
`Basis.rank_all` ranks a batch and `hop_all` moves one particle in every
row; `Basis.rank` and `apply_single_hop` are their one-row calls.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

State = Tuple[int, ...]

DEFAULT_CAPACITY = 200_000
CAPACITY_ENV_VAR = "NHSE_CAPACITY"

LEGS = ("A", "B")


class CapacityError(RuntimeError):
    """Requested basis (or matrix) exceeds the configured size budget."""


def resolve_capacity(capacity: Optional[int] = None) -> int:
    """Return the effective capacity: explicit argument, else the
    NHSE_CAPACITY environment variable, else the built-in default."""
    if capacity is not None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        return capacity
    env = os.environ.get(CAPACITY_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{CAPACITY_ENV_VAR} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError(f"{CAPACITY_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_CAPACITY


def combined_site(cell: int, leg: str, cells: int) -> int:
    """Map (cell, leg) with 1-based cell to the combined site index."""
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    if not 1 <= cell <= cells:
        raise ValueError(f"cell must be in 1..{cells}, got {cell}")
    if leg not in LEGS:
        raise ValueError(f"leg must be one of {LEGS}, got {leg!r}")
    return cell - 1 if leg == "A" else cells + cell - 1


def site_cell_leg(site: int, cells: int) -> Tuple[int, str]:
    """Inverse of combined_site: combined index -> (1-based cell, leg)."""
    if not 0 <= site < 2 * cells:
        raise ValueError(f"site must be in 0..{2 * cells - 1}, got {site}")
    if site < cells:
        return site + 1, "A"
    return site - cells + 1, "B"


def basis_dimension(cells: int, particles: int, statistics: str = "boson") -> int:
    """Dimension of the fixed-N sector: C(2L+N-1, N) bosons, C(2L, N) fermions."""
    nsites = 2 * cells
    if statistics == "boson":
        return math.comb(nsites + particles - 1, particles)
    if statistics == "fermion":
        return math.comb(nsites, particles)
    raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")


class Basis:
    """Enumerated occupation basis for one (cells, particles, statistics) sector.

    `occupations` is a read-only (dimension, 2L) float64 array with one
    occupation row per state, in descending lexicographic order; the
    constructor takes those rows (any array-like) for the whole sector.
    """

    def __init__(self, cells: int, particles: int, statistics: str, states):
        self.cells = cells
        self.particles = particles
        self.statistics = statistics
        self.occupations = np.array(states, dtype=np.float64).reshape(-1, 2 * cells)
        self.occupations.setflags(write=False)
        # Colex rank of the ascending particle positions p: sum_i C(q_i, i+1)
        # with q_i = p_i + i for bosons (which turns the multiset into a set)
        # and q_i = p_i for fermions. It maps the sector one-to-one onto
        # [0, D), so each term of a sector state is below D: saturating the
        # table at D keeps every key in int64 without changing any of them.
        dim = len(self.occupations)
        span = self.nsites + (particles - 1 if statistics == "boson" else 0)
        self._colex_terms = np.array(
            [[min(math.comb(q, i + 1), dim) for i in range(particles)]
             for q in range(span)], dtype=np.int64)
        self._order = np.empty(dim, dtype=np.int64)
        self._order[self._colex(self.occupations.astype(np.int64))] = np.arange(dim)

    @property
    def nsites(self) -> int:
        return 2 * self.cells

    @property
    def dimension(self) -> int:
        return len(self.occupations)

    @cached_property
    def states(self) -> Tuple[State, ...]:
        """Occupation tuples, one per row of `occupations`."""
        return tuple(map(tuple, self.occupations.astype(np.int64).tolist()))

    def _colex(self, occupations: np.ndarray) -> np.ndarray:
        n = self.particles
        positions = np.repeat(np.tile(np.arange(self.nsites), len(occupations)),
                              occupations.ravel()).reshape(-1, n)
        if self.statistics == "boson":
            positions = positions + np.arange(n)
        return self._colex_terms[positions, np.arange(n)].sum(axis=1)

    def rank_all(self, rows) -> np.ndarray:
        """Indices of a batch of occupation rows; raises ValueError unless
        every row is in the basis."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.nsites:
            raise ValueError(f"states must be rows of length 2L={self.nsites}, "
                             f"got shape {rows.shape}")
        cap = self.particles if self.statistics == "boson" else 1
        member = (((rows >= 0) & (rows <= cap) & (rows == np.floor(rows))).all(axis=1)
                  & (rows.sum(axis=1) == self.particles))
        if not member.all():
            foreign = tuple(rows[np.argmin(member)].tolist())
            raise ValueError(f"state {foreign} is not in the basis "
                             f"(cells={self.cells}, particles={self.particles}, "
                             f"statistics={self.statistics})")
        return self._order[self._colex(rows.astype(np.int64))]

    def rank(self, state: Sequence[int]) -> int:
        """Index of an occupation tuple; raises ValueError if not in the basis."""
        return int(self.rank_all([state])[0])

    def unrank(self, index: int) -> State:
        """Occupation tuple at a basis index; raises ValueError out of range."""
        if not 0 <= index < self.dimension:
            raise ValueError(f"index must be in 0..{self.dimension - 1}, got {index}")
        return tuple(self.occupations[index].astype(np.int64).tolist())

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:
        return (f"Basis(cells={self.cells}, particles={self.particles}, "
                f"statistics={self.statistics!r}, dimension={self.dimension})")


def enumerate_basis(cells: int, particles: int, statistics: str = "boson",
                    capacity: Optional[int] = None) -> Basis:
    """Enumerate the fixed particle-number basis of the 2L-site ladder.

    Raises CapacityError if the sector dimension exceeds the capacity budget
    (argument, else NHSE_CAPACITY environment variable, else 200000).
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    if particles < 1:
        raise ValueError(f"particles must be >= 1, got {particles}")
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    nsites = 2 * cells
    if statistics == "fermion" and particles > nsites:
        raise ValueError(f"cannot place {particles} fermions on {nsites} sites")
    dim = basis_dimension(cells, particles, statistics)
    cap = resolve_capacity(capacity)
    if dim > cap:
        raise CapacityError(f"basis dimension {dim} exceeds capacity {cap} "
                            f"(cells={cells}, particles={particles}, statistics={statistics})")
    # Position multisets in ascending lexicographic order give occupation
    # rows in descending lexicographic order.
    combos = (itertools.combinations_with_replacement if statistics == "boson"
              else itertools.combinations)(range(nsites), particles)
    positions = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64,
                            count=dim * particles).reshape(dim, particles)
    flat = (positions + nsites * np.arange(dim)[:, None]).ravel()
    occupations = np.bincount(flat, minlength=dim * nsites).reshape(dim, nsites)
    return Basis(cells, particles, statistics, occupations)


def hop_all(occupations, from_site: int, to_site: int,
            statistics: str = "boson") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply a_to^dag a_from to every row of an occupation array.

    Returns (kept, new, amplitudes): the indices of the rows the move does
    not annihilate (empty source, or occupied fermion target), their images
    and the amplitudes. Bosons pick up sqrt(n_from) * sqrt(n_to + 1);
    fermions pick up the parity of the number of occupied sites strictly
    between the two sites (Jordan-Wigner string).
    """
    occupations = np.asarray(occupations, dtype=np.float64)
    if from_site == to_site:
        raise ValueError("from_site and to_site must differ")
    n = occupations.shape[1]
    if not (0 <= from_site < n and 0 <= to_site < n):
        raise ValueError(f"site indices must be in 0..{n - 1}, "
                         f"got {from_site}, {to_site}")
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    alive = occupations[:, from_site] != 0
    if statistics == "fermion":
        alive &= occupations[:, to_site] != 1
    kept = np.flatnonzero(alive)
    new = occupations[kept]
    if statistics == "fermion":
        lo, hi = sorted((from_site, to_site))
        amplitudes = np.where(new[:, lo + 1:hi].sum(axis=1) % 2, -1.0, 1.0)
    else:
        amplitudes = np.sqrt(new[:, from_site]) * np.sqrt(new[:, to_site] + 1)
    new[:, from_site] -= 1
    new[:, to_site] += 1
    return kept, new, amplitudes


def apply_single_hop(state: Sequence[int], from_site: int, to_site: int,
                     statistics: str = "boson") -> Optional[Tuple[State, float]]:
    """Apply a_to^dag a_from to an occupation state: the one-row call of
    hop_all. Returns (new_state, amplitude) or None when the move
    annihilates the state."""
    kept, new, amplitudes = hop_all([state], from_site, to_site, statistics)
    if not len(kept):
        return None
    return tuple(new[0].astype(np.int64).tolist()), float(amplitudes[0])
