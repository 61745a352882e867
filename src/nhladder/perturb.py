"""Second-order effective model for the strongly bound pair sector.

At large on-site repulsion the two-boson spectrum splits off a band of
tightly bound pairs. Virtual dissociation generates an effective single
pair hopping model on the 2L pair sites (cell, leg), which is one particle
on the ladder (model.build_hamiltonian) with renormalized amplitudes:
asymmetric intra-leg hops proportional to the squared bare amplitudes over
u and a reciprocal inter-leg coupling with leg-split denominators
u +/- 2 mu, plus a per-leg on-site energy from the rung and from
left-right virtual exchange. The first-order correction vanishes because
a single hop breaks the pair.

validate_effective_model compares the model's spectrum with the bound band
of the full one, both in eigendecompose's (re, im) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eig import eigendecompose
from .model import ModelParams, SparseOperator, build_hamiltonian, sector_basis
from .observables import check_gaps, select_clusters

RESONANCE_RTOL = 1e-6
SQRT2 = math.sqrt(2.0)


class ResonanceError(ValueError):
    """Effective model denominators u +/- 2 mu (or u itself) are too close
    to zero for the perturbative construction to make sense."""


def _check_denominators(params: ModelParams) -> None:
    if params.statistics != "boson":
        raise ValueError("the effective pair model is defined for bosons")
    u = params.u
    if u == 0.0:
        raise ResonanceError("u must be nonzero for the effective pair model")
    for sign in (+1.0, -1.0):
        if abs(u + 2.0 * sign * params.mu) < RESONANCE_RTOL * abs(u):
            raise ResonanceError(f"denominator u {'+' if sign > 0 else '-'} 2 mu "
                                 f"is resonant (u={u}, mu={params.mu})")


def _rung_coupling(params: ModelParams) -> float:
    """Reciprocal inter-leg pair hop sqrt(2) jp^2 (1/(u + 2 mu) + 1/(u - 2 mu))."""
    return SQRT2 * params.jp ** 2 * (1.0 / (params.u + 2.0 * params.mu)
                                     + 1.0 / (params.u - 2.0 * params.mu))


def build_effective_pair_hamiltonian(params: ModelParams) -> SparseOperator:
    """Assemble the 2L x 2L effective pair Hamiltonian: one particle on the
    ladder (build_hamiltonian), with renormalized amplitudes, plus a per-leg
    on-site energy.

    Pair sites follow the combined ordering (leg A cells first). Per leg
    with bare amplitudes (jl, jr) and leg sign p = +1 (A) or -1 (B):

      diagonal: u + 2 p mu + sqrt(2) jp^2 / (u + 2 p mu)
                + 2 sqrt(2) jl jr / u
      hops:     sqrt(2) jl^2 / u forward, sqrt(2) jr^2 / u backward
      rungs:    sqrt(2) jp^2 (1 / (u + 2 mu) + 1 / (u - 2 mu)), reciprocal

    The non-reciprocity is squared relative to the bare model, and the two
    legs favor opposite edges, which is what drives the pair-sector size
    transition.
    """
    _check_denominators(params)
    u, jp2 = params.u, params.jp ** 2
    # build_hamiltonian's intra-leg terms are -jl and -jr
    hops = params.with_updates(
        particles=1, u=0.0, mu=0.0, jp=_rung_coupling(params),
        jl_a=-(SQRT2 * params.jl_a * params.jl_a / u),
        jr_a=-(SQRT2 * params.jr_a * params.jr_a / u),
        jl_b=-(SQRT2 * params.jl_b * params.jl_b / u),
        jr_b=-(SQRT2 * params.jr_b * params.jr_b / u))
    ladder = build_hamiltonian(hops, sector_basis(hops))
    legs = ((params.jl_a, params.jr_a, u + 2.0 * params.mu),
            (params.jl_b, params.jr_b, u - 2.0 * params.mu))
    diag = np.repeat([denom + SQRT2 * jp2 / denom + 2.0 * SQRT2 * jl * jr / u
                      for jl, jr, denom in legs], params.cells)
    sites = np.arange(ladder.dimension)
    return SparseOperator(dimension=ladder.dimension,
                          rows=np.concatenate([sites, ladder.rows]),
                          cols=np.concatenate([sites, ladder.cols]),
                          values=np.concatenate([diag, ladder.values]))


@dataclass(frozen=True)
class EffectiveModelReport:
    """Comparison of the bound-pair band of the full spectrum against the
    effective model, at the given u and at 2u.

    max_dev is the largest relative eigenvalue deviation |full - eff| /
    |full| with both sets in (Re, Im) order; max_dev_abs is the same
    without the normalization. ratio divides max_dev at u by max_dev at 2u
    and should sit near 4 when the residual error is dominated by the next
    order in 1/u."""

    params: ModelParams
    max_dev: float
    max_dev_abs: float
    doubled_max_dev: float
    ratio: float
    rung_coupling: float
    full_eigenvalues: np.ndarray
    effective_eigenvalues: np.ndarray


def _bound_band(params: ModelParams, capacity: Optional[int],
                gap_factor: float, min_gap: Optional[float]) -> np.ndarray:
    """Eigenvalues of the full model in the bound clusters (see
    select_clusters), in the (Re, Im) order select_clusters keeps; there
    must be exactly one per pair site."""
    basis = sector_basis(params, capacity=capacity)
    result = eigendecompose(build_hamiltonian(params, basis), capacity=capacity)
    bound = select_clusters(result, params, gap_factor, min_gap)["bound"]
    members = [m for c in bound for m in c.members]
    if len(members) != 2 * params.cells:
        raise RuntimeError(f"bound band is not isolable: found {len(members)} "
                           f"eigenvalues near u={params.u}, expected {2 * params.cells}")
    return result.eigenvalues[members]


def validate_effective_model(params: ModelParams,
                             capacity: Optional[int] = None,
                             gap_factor: float = 10.0,
                             min_gap: Optional[float] = None
                             ) -> EffectiveModelReport:
    """Diagonalize the full two-boson model and the effective pair model at
    params.u and at 2 u, pair the spectra in the (Re, Im) order both come
    in, and report the deviations and their ratio. The bound band of the full
    spectrum is the "bound" group of select_clusters(gap_factor, min_gap),
    min_gap None standing for default_min_gap, as in the spectrum command.

    Requires exactly two bosons, and rejects gap_factor and min_gap out of
    range (observables.check_gaps) before any solve. Raises RuntimeError
    when the bound band cannot be isolated (too few or too many eigenvalues
    near u), and ResonanceError near the u = +/- 2 mu degeneracies.
    """
    if params.statistics != "boson" or params.particles != 2:
        raise ValueError("validate_effective_model requires two bosons")
    check_gaps(gap_factor, min_gap)
    deviations = {}
    spectra = {}
    for scale in (1.0, 2.0):
        p = params.with_updates(u=scale * params.u)
        _check_denominators(p)
        full = _bound_band(p, capacity, gap_factor, min_gap)
        eff = eigendecompose(build_effective_pair_hamiltonian(p),
                             capacity=capacity).eigenvalues
        diff = np.abs(full - eff)
        deviations[scale] = (float(np.max(diff / np.abs(full))),
                             float(np.max(diff)))
        spectra[scale] = (full, eff)
    max_dev, max_dev_abs = deviations[1.0]
    doubled_max_dev = deviations[2.0][0]
    if doubled_max_dev == 0.0:
        raise RuntimeError("deviation at 2u vanished; ratio undefined")
    full, eff = spectra[1.0]
    return EffectiveModelReport(params=params,
                                max_dev=max_dev,
                                max_dev_abs=max_dev_abs,
                                doubled_max_dev=doubled_max_dev,
                                ratio=max_dev / doubled_max_dev,
                                rung_coupling=_rung_coupling(params),
                                full_eigenvalues=full,
                                effective_eigenvalues=eff)
