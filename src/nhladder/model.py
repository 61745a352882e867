"""Hamiltonian assembly for the non-reciprocal two-leg ladder.

Intra-leg hopping is asymmetric: on leg s the term -jl_s a_x^dag a_{x+1}
moves a particle left and -jr_s a_{x+1}^dag a_x moves it right, with the
asymmetry reversed between the legs. Rungs couple the legs reciprocally
with amplitude +jp on every cell. Diagonal terms are on-site repulsion
(u/2) n(n-1) for bosons or nearest-neighbor repulsion u_nn n_x n_{x+1}
along each leg for fermions, plus a leg imbalance mu (N_A - N_B).
Boundaries are always open.

A SectorPlan holds what every Hamiltonian of one sector shares: the
diagonal counts of its states and, for each hop term, the rows, columns
and amplitudes of its nonzeros. plan.operator(params) only scales them,
and build_hamiltonian is the plan at one point, so a search or a sweep
that builds one plan per sector assembles each of its operators with the
same bits. Every operator of a plan carries the sector's band order: its
states sorted by total cell coordinate S = sum_s n_s (s mod L), ties broken
by the particle count on leg A. A hop moves one particle by at most one
cell, so every nonzero joins S-levels at most one apart whatever the
parameters, and lapack.inverse_iteration factors the operator as a narrow
band in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fock import Basis, enumerate_basis, hop_all

FLOAT_FIELDS = ("jl_a", "jr_a", "jl_b", "jr_b", "jp", "mu", "u", "u_nn")


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
        leg A hops with (j e^alpha, j e^-alpha), leg B with the mirror."""
        jl = j * math.exp(alpha)
        jr = j * math.exp(-alpha)
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


def _diagonal(counts, params: ModelParams) -> np.ndarray:
    quanta, imbalance = counts
    return params.mu * imbalance + params.pair_energy * quanta


def onsite_energy(state: Sequence[int], params: ModelParams) -> float:
    """Diagonal energy of one occupation state: interaction plus mu imbalance."""
    if len(state) != 2 * params.cells:
        raise ValueError(f"state length {len(state)} does not match 2L={2 * params.cells}")
    return float(_diagonal(diagonal_counts([state], params.statistics),
                           params)[0])


def _hop_terms(cells: int) -> List[Tuple[int, int, str, float]]:
    # (from_site, to_site, parameter, sign) of every one-particle move: its
    # coefficient is sign * the parameter, -jl_s leftward and -jr_s
    # rightward along leg s, +jp both ways across each rung
    terms = []
    for off, jl, jr in ((0, "jl_a", "jr_a"), (cells, "jl_b", "jr_b")):
        for a in range(off, off + cells - 1):
            terms += [(a + 1, a, jl, -1.0), (a, a + 1, jr, -1.0)]
    for x in range(cells):
        terms += [(x, cells + x, "jp", 1.0), (cells + x, x, "jp", 1.0)]
    return terms


class SectorPlan:
    """The parts of every Hamiltonian on one sector's basis: the diagonal
    counts of its states (diagonal_counts) and, for each hop term in
    _hop_terms order, the rows (ranks of the images), columns (the states
    the move does not annihilate) and amplitudes of its nonzeros.

    operator(params) scales them, and every operator it returns carries
    the sector's band order (the module docstring): the states sorted by
    total cell coordinate, ties broken by the leg imbalance N_A - N_B =
    2 N_A - N, which sorts them as the particle count on leg A does.
    """

    def __init__(self, basis: Basis):
        self.basis = basis
        occ = basis.occupations
        self._counts = diagonal_counts(occ, basis.statistics)
        cell_sum = occ.reshape(len(occ), 2, basis.cells).sum(axis=1) \
            @ np.arange(basis.cells)
        self._band_order = np.lexsort((self._counts[1], cell_sum))
        self._band_order.setflags(write=False)
        self._terms = []
        for from_site, to_site, name, sign in _hop_terms(basis.cells):
            kept, new, amplitudes = hop_all(occ, from_site, to_site,
                                            basis.statistics)
            self._terms.append((name, sign, basis.rank_all(new), kept,
                                amplitudes))

    def operator(self, params: ModelParams) -> SparseOperator:
        """The Hamiltonian at params: the diagonal nonzeros, then each hop
        term with a nonzero coefficient, its amplitudes times the
        coefficient, in term order, with the plan's band order. Raises
        ValueError where params belong to another sector."""
        basis = self.basis
        if (basis.cells, basis.particles, basis.statistics) != \
                (params.cells, params.particles, params.statistics):
            raise ValueError(f"basis {basis!r} does not match params "
                             f"(cells={params.cells}, particles={params.particles}, "
                             f"statistics={params.statistics})")
        # a product that overflows, and a sum of opposite infinities, is
        # left to eig.eigendecompose, which rejects a non-finite norm
        with np.errstate(over="ignore", invalid="ignore"):
            diag = _diagonal(self._counts, params)
            on = np.flatnonzero(diag)
            rows, cols, vals = [on], [on], [diag[on]]
            for name, sign, term_rows, term_cols, amplitudes in self._terms:
                coeff = sign * getattr(params, name)
                if coeff != 0.0:
                    rows.append(term_rows)
                    cols.append(term_cols)
                    vals.append(coeff * amplitudes)
        return SparseOperator(dimension=basis.dimension,
                              rows=np.concatenate(rows),
                              cols=np.concatenate(cols),
                              values=np.concatenate(vals),
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
