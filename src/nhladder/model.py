"""Hamiltonian assembly for the non-reciprocal two-leg ladder.

Intra-leg hopping is asymmetric: on leg s the term -jl_s a_x^dag a_{x+1}
moves a particle left and -jr_s a_{x+1}^dag a_x moves it right, with the
asymmetry reversed between the legs. Rungs couple the legs reciprocally
with amplitude +jp on every cell. Diagonal terms are on-site repulsion
(u/2) n(n-1) for bosons or nearest-neighbor repulsion u_nn n_x n_{x+1}
along each leg for fermions, plus a leg imbalance mu (N_A - N_B).
Boundaries are always open.

A SectorPlan holds every Hamiltonian of one sector as H = sum_p p P_p:
fixed parts, each scaled by one parameter (mu, the interaction, the four
leg hops and jp), with the nonzeros of each part stored once.
plan.operator(params) only scales them, and build_hamiltonian is the plan
at one point, so a search or a sweep that builds one plan per sector
assembles each of its operators with the same bits. Every operator of a
plan carries the sector's band order: its states sorted by total cell
coordinate S = sum_s n_s (s mod L), ties broken by the particle count on
leg A. A hop moves one particle by at most one cell, so every nonzero
joins S-levels at most one apart whatever the parameters, and
lapack.inverse_iteration factors the operator as a narrow band in that
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fock import Basis, enumerate_basis, hop_all

FLOAT_FIELDS = ("jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu", "u", "u_nn")


def leg_hops(j: Optional[float], alpha: float) -> Tuple[float, float]:
    """Left and right hops (j e^alpha, j e^-alpha) of a leg with scale j and
    imbalance alpha; j defaults to e^-alpha. Raises ValueError naming j or
    alpha where it is not finite, and naming alpha where e^alpha or e^-alpha
    overflows a double."""
    for name, value in (("j", j), ("alpha", alpha)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value}")
    try:
        j = math.exp(-alpha) if j is None else j
        return j * math.exp(alpha), j * math.exp(-alpha)
    except OverflowError:
        raise ValueError(f"alpha: e^alpha and e^-alpha must not overflow a "
                         f"double, got {alpha}") from None


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set for one ladder Hamiltonian.

    Defaults give the reference non-reciprocal pair jl_a=1, jr_a=0.5 with
    the mirrored asymmetry on leg B and everything else switched off.
    """

    cells: int
    particles: int
    statistics: str = "boson"
    jl_a: float = 1.0
    jr_a: float = 0.5
    jl_b: float = 0.5
    jr_b: float = 1.0
    jp: float = 0.0
    mu: float = 0.0
    u: float = 0.0
    u_nn: float = 0.0

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"statistics must be 'boson' or 'fermion', "
                             f"got {self.statistics!r}")
        if self.statistics == "fermion" and self.particles > 2 * self.cells:
            raise ValueError(f"cannot place {self.particles} fermions on "
                             f"{2 * self.cells} sites")
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.statistics == "boson" and self.u_nn != 0.0:
            raise ValueError("u_nn applies to fermions only; use u for bosons")
        if self.statistics == "fermion" and self.u != 0.0:
            raise ValueError("u applies to bosons only; use u_nn for fermions")

    @classmethod
    def from_j_alpha(cls, cells: int, particles: int, j: float, alpha: float,
                     **kwargs) -> "ModelParams":
        """Build amplitudes from a symmetric scale j and imbalance alpha:
        leg A hops with (j e^alpha, j e^-alpha), leg B with the mirror.
        Raises ValueError (leg_hops) where j or alpha is not finite or
        e^alpha or e^-alpha overflows a double."""
        jl, jr = leg_hops(j, alpha)
        return cls(cells=cells, particles=particles,
                   jl_a=jl, jr_a=jr, jl_b=jr, jr_b=jl, **kwargs)

    def with_updates(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

    @property
    def pair_energy(self) -> float:
        """Interaction energy of two particles bound together: u for bosons
        (a doublon), u_nn for fermions (a same-leg nearest-neighbor pair)."""
        return self.u if self.statistics == "boson" else self.u_nn


@dataclass(frozen=True)
class SparseOperator:
    """Coordinate-format operator on a fixed basis; duplicates add.

    band_order, where set, is a numbering of the basis that keeps every
    nonzero near the diagonal, the old index of each new position: every
    operator of a SectorPlan carries its sector's. Only an operator that
    carries one gets eig.eigendecompose's eigenvalue-only solve, whose
    lapack.inverse_iteration factors in it; any other is solved in full."""

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    band_order: Optional[np.ndarray] = field(default=None, repr=False,
                                             compare=False)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dimension, self.dimension), dtype=self.values.dtype)
        np.add.at(dense, (self.rows, self.cols), self.values)
        return dense


def diagonal_counts(occupations, statistics: str):
    """Interaction quanta and leg imbalance N_A - N_B of each occupation row.

    The quanta are on-site pairs sum n(n-1)/2 for bosons and same-leg
    nearest-neighbor pairs sum n_x n_{x+1} for fermions, so a row's diagonal
    energy is mu * imbalance + pair_energy * quanta.
    """
    occ = np.asarray(occupations, dtype=np.int64)
    legs = occ.reshape(len(occ), 2, occ.shape[1] // 2)
    if statistics == "boson":
        quanta = (occ * (occ - 1)).sum(axis=1) // 2
    else:
        quanta = (legs[:, :, :-1] * legs[:, :, 1:]).sum(axis=(1, 2))
    return quanta, legs[:, 0].sum(axis=1) - legs[:, 1].sum(axis=1)


def onsite_energy(state: Sequence[int], params: ModelParams) -> float:
    """Diagonal energy of one occupation state: interaction plus mu imbalance."""
    if len(state) != 2 * params.cells:
        raise ValueError(f"state length {len(state)} does not match 2L={2 * params.cells}")
    quanta, imbalance = diagonal_counts([state], params.statistics)
    return float(params.mu * imbalance[0] + params.pair_energy * quanta[0])


# the parameter that scales each part of a plan, in the plan's part order
_PARTS = ("mu", "pair_energy", "jl_a", "jr_a", "jl_b", "jr_b", "jp")


def _hop_terms(cells: int) -> List[Tuple[int, int, str, float]]:
    # (from_site, to_site, parameter, sign) of every one-particle move,
    # grouped by parameter: the coefficient is sign * the parameter, -jl_s
    # leftward and -jr_s rightward along leg s, +jp both ways across a rung
    bonds = range(cells - 1)
    terms = []
    for off, jl, jr in ((0, "jl_a", "jr_a"), (cells, "jl_b", "jr_b")):
        terms += [(off + a + 1, off + a, jl, -1.0) for a in bonds]
        terms += [(off + a, off + a + 1, jr, -1.0) for a in bonds]
    return terms + [(a, b, "jp", 1.0) for x in range(cells)
                    for a, b in ((x, cells + x), (cells + x, x))]


class SectorPlan:
    """Every Hamiltonian on one sector's basis as H = sum_p p P_p: the
    nonzeros of each part P_p, stored once, grouped by the parameter p
    that scales it (_PARTS order). The diagonal parts are the leg imbalance
    (scaled by mu) and the interaction quanta (scaled by pair_energy) of
    diagonal_counts; the off-diagonal ones are the four leg hops and the
    rung (jp): for each move, the rows (ranks of the images), columns (the
    states the move does not annihilate) and amplitudes, with the term's
    sign folded in.

    operator(params) is one product, each stored amplitude times its
    part's parameter. Its raw COO arrays are the parts in order, explicit
    zeros included where a parameter vanishes; what is pinned is what every
    reader takes from them, the gathered entries (eig._entries) and
    to_dense, which carry the bits of the one-term-at-a-time assembly.
    Every operator carries the sector's band order (the module docstring):
    the states sorted by total cell coordinate, ties broken by the leg
    imbalance N_A - N_B = 2 N_A - N, which sorts them as the particle count
    on leg A does.
    """

    def __init__(self, basis: Basis):
        self.basis = basis
        occ = basis.occupations
        quanta, imbalance = diagonal_counts(occ, basis.statistics)
        cell_sum = occ.reshape(len(occ), 2, basis.cells).sum(axis=1) \
            @ np.arange(basis.cells)
        self._band_order = np.lexsort((imbalance, cell_sum))
        self._band_order.setflags(write=False)
        pieces = []
        for part, counts in enumerate((imbalance, quanta)):
            on = np.flatnonzero(counts)
            pieces.append((part, on, on, counts[on].astype(np.float64)))
        for source, target, name, sign in _hop_terms(basis.cells):
            kept, new, amplitudes = hop_all(occ, source, target, basis.statistics)
            pieces.append((_PARTS.index(name), basis.rank_all(new), kept,
                           sign * amplitudes))
        parts, rows, cols, amplitudes = zip(*pieces)
        self._parts = np.repeat(parts, [len(c) for c in cols])
        self._rows, self._cols, self._amplitudes = map(
            np.concatenate, (rows, cols, amplitudes))
        for array in (self._rows, self._cols):
            array.setflags(write=False)  # shared by every operator

    def operator(self, params: ModelParams) -> SparseOperator:
        """The Hamiltonian at params, with the plan's band order: the parts
        in _PARTS order, each stored amplitude times its part's parameter,
        explicit zeros included. Raises ValueError where params belong to
        another sector."""
        basis = self.basis
        if (basis.cells, basis.particles, basis.statistics) != \
                (params.cells, params.particles, params.statistics):
            raise ValueError(f"basis {basis!r} does not match params "
                             f"(cells={params.cells}, particles={params.particles}, "
                             f"statistics={params.statistics})")
        coefficients = np.array([getattr(params, name) for name in _PARTS])
        # a product that overflows is left to eig.eigendecompose, which
        # rejects a non-finite norm
        with np.errstate(over="ignore"):
            values = coefficients[self._parts] * self._amplitudes
        return SparseOperator(dimension=basis.dimension, rows=self._rows,
                              cols=self._cols, values=values,
                              band_order=self._band_order)


def build_hamiltonian(params: ModelParams, basis: Basis) -> SparseOperator:
    """Assemble the many-body Hamiltonian on the given basis: the
    SectorPlan of the basis at one point, band order included.

    Hop terms: for each leg s and bond (x, x+1), -jl_s moves a particle from
    x+1 to x and -jr_s from x to x+1; rung terms move between legs with +jp
    in both directions. The result conserves particle number by construction
    and has real entries.
    """
    return SectorPlan(basis).operator(params)


def build_single_particle_matrix(params: ModelParams) -> np.ndarray:
    """Dense 2L x 2L one-particle matrix in the combined site ordering: the
    N=1 many-body Hamiltonian (the N=1 basis index is the combined site
    index and interactions vanish for one particle)."""
    one = params.with_updates(particles=1)
    return build_hamiltonian(one, sector_basis(one)).to_dense()


def sector_basis(params: ModelParams, capacity: Optional[int] = None) -> Basis:
    """Enumerate the basis matching a parameter set."""
    return enumerate_basis(params.cells, params.particles, params.statistics,
                           capacity=capacity)
