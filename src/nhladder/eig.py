"""Verified dense non-symmetric eigendecomposition of real matrices.

Every Hamiltonian of the model is real, so a solve takes real input only: a
real SparseOperator or a real dense array, which is turned into a
SparseOperator of its nonzeros at entry, so both go the same way. A solve
gathers the nonzeros of the operator, balances them (a diagonal
similarity scaling) and hands the balanced nonzeros to lapack.geev, which
runs LAPACK dgeev in place in a buffer of its own through numpy's OpenBLAS,
or np.linalg.eig where that library cannot be bound; both give the same
bits. No operator is made dense here: apart from geev's buffer, a solve
holds O(nnz) entries and O(n * GATHER) temporaries. An eigenvalue-only
solve (vectors=False) has dgeev skip the eigenvectors and finds the one
eigenvector it checks by inverse iteration on the matrix renumbered into a
narrow band, in a band buffer of about 3 kl x n entries (kl diagonals on
either side) allocated after geev's n x n floats are freed. The band order
is the one the operator carries (SparseOperator.band_order, which every
operator of a model.SectorPlan has); an operator without one, dense input
included, is solved with every eigenvector. Where that eigenpair misses
the residual bound, as it can at an exceptional point (a defective
eigenvalue), the operator is solved again with every eigenvector.

Every decomposition is checked before it is returned: per-eigenpair
residuals (of the deciding eigenpair alone without eigenvectors) against
RESIDUAL_RTOL times the norm, computed from the nonzeros of the original
matrix, the trace identity (TRACE_RTOL), and closure of the spectrum under
complex conjugation (CONJ_ATOL). A failed check raises
ConvergenceError rather than returning silently wrong data. The eigenpairs
come out sorted by real part, then imaginary part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np

from . import lapack
from .fock import CapacityError, resolve_capacity
from .model import SparseOperator

RESIDUAL_RTOL = 1e-9
TRACE_RTOL = 1e-8
CONJ_ATOL = 1e-10
# eigenvector columns per block of the one pass that scales, normalises
# and checks them: bounds its temporaries to a few GATHER x n arrays
GATHER = 16


class ConvergenceError(RuntimeError):
    """Eigensolver output failed residual, trace, or conjugation checks."""


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by real part, then imaginary part; right
    eigenvectors (columns of a Fortran-ordered array) in the same order,
    or None from an eigenvalue-only solve; residuals, NaN in an
    eigenvalue-only solve except at the one eigenpair it verified; the
    infinity norm of the matrix that produced them; and the solve's
    diagnostics: seconds per stage (densify_s, which times gathering the
    nonzeros, balance_s, geev_s for the solve and the sort, verify_s for
    the one eigenvector pass that undoes the balancing, normalises and
    computes the residuals, or for the inverse iteration of the deciding
    eigenpair and its residual, and the trace and conjugation checks), the
    balance sweeps applied and the safety cap (fewer sweeps than the cap
    means balancing converged), and log10(max d / min d) of the balancing
    scale d."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    residuals: np.ndarray
    matrix_norm: float
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def default_eps_im(matrix_norm: float) -> float:
    """Default threshold separating numerically real from complex spectra."""
    return max(1e-9, 1e-12 * matrix_norm)


def check_eps_im(eps_im: float) -> None:
    """Raise ValueError unless eps_im is a non-negative number (not NaN)."""
    if not eps_im >= 0.0:
        raise ValueError(f"eps_im must be non-negative, got {eps_im}")


def _entries(operator: SparseOperator
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and float values of the nonzeros of a SparseOperator,
    in row-major order. np.unique numbers the distinct row-major keys and
    np.bincount sums the COO duplicates of each in input order from 0.0, as
    np.add.at sums them into a dense matrix, so each value has the bits of
    the dense entry (boolean duplicates add too); the duplicate-free
    row-major entries of a dense array (np.nonzero) come back unchanged."""
    dim = operator.dimension
    keys, inverse = np.unique(operator.rows.astype(np.int64) * dim
                              + operator.cols, return_inverse=True)
    values = np.bincount(inverse, weights=operator.values,
                         minlength=len(keys))
    kept = values != 0
    keys = keys[kept]
    return keys // dim, keys % dim, values[kept]


def _balance(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
             diagnostics: Optional[Dict[str, float]] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal similarity scaling that equalizes row and column weight.

    Skin-effect matrices are strongly non-normal, which makes their
    eigenvalues ill-conditioned for QR iteration. Scaling D^-1 H D toward
    balanced row/column sums restores near-normality without changing the
    spectrum. Takes the nonzeros of the n x n matrix H (rows, cols, values)
    and returns the diagonal d of D and the nonzeros of D^-1 H D.

    The sweeps and the rescale work on the off-diagonal nonzeros alone, so
    each costs O(nnz) rather than O(n^2). Each sweep multiplies every scale
    by (row / col) ** (1/4), half the log-step that would equalize the sums
    of a single index: every ladder hop links two parity classes of states,
    and the full step overshoots by exactly 2x on such a bipartite graph,
    so the entries swap forever instead of settling. Sweeps stop once no
    scale moves by more than 0.1% (max |log factor| < 1e-3), or at a flat
    safety cap of 1000. If given, diagnostics receives the sweeps applied
    and the cap.
    """
    cap = 1000 if n > 1 else 0
    off = rows != cols
    off_rows, off_cols = rows[off], cols[off]
    work = np.abs(values[off]).astype(float)
    d = np.ones(n)
    applied = 0
    for _ in range(cap):
        col = np.bincount(off_cols, weights=work, minlength=n)
        row = np.bincount(off_rows, weights=work, minlength=n)
        active = (col > 0.0) & (row > 0.0)
        factor = np.sqrt(np.sqrt(np.divide(row, col, out=np.ones(n),
                                           where=active)))
        np.clip(factor, 0.25, 4.0, out=factor)
        np.clip(factor, 1e-12 / d, 1e12 / d, out=factor)
        if np.max(np.abs(np.log(factor))) < 1e-3:
            break
        d *= factor
        work = work * factor[off_cols] / factor[off_rows]
        applied += 1
    if diagnostics is not None:
        diagnostics.update(balance_sweeps=applied, balance_sweep_cap=cap)
    # one rescale of the original entries keeps rounding to a single step;
    # on the diagonal d / d is exactly 1, so those entries stay exact
    return d, values * (d[cols] / d[rows])


def _check_conjugate_closure(eigenvalues: np.ndarray) -> None:
    """Closure under conjugation of eigenvalues sorted by (re, im)."""
    if not np.allclose(eigenvalues, np.sort_complex(np.conj(eigenvalues)),
                       rtol=0.0, atol=CONJ_ATOL):
        raise ConvergenceError("spectrum of a real matrix is not closed under "
                               "complex conjugation within tolerance")


def eigendecompose(operator: Union[SparseOperator, np.ndarray],
                   capacity: Optional[int] = None, *, vectors: bool = True,
                   reads: Optional[Callable] = None) -> SpectrumResult:
    """Full eigendecomposition with mandatory verification, or with
    vectors=False the eigenvalues and one verified eigenpair.

    Accepts a real SparseOperator or a real dense square array, which
    becomes a SparseOperator of its nonzeros (np.nonzero) before anything
    else; complex input raises ValueError, and so does a matrix whose
    norm(H, inf) is not finite or exceeds sqrt(max float / dimension) / 2,
    where the residual check could overflow. Raises CapacityError when the
    dimension exceeds the size budget, ConvergenceError when any eigenpair
    residual exceeds RESIDUAL_RTOL * norm(H, inf), the eigenvalue sum
    misses the trace by more than TRACE_RTOL * norm(H, inf) * dimension, or
    the spectrum is not closed under conjugation within CONJ_ATOL.

    Dense or sparse, the norm, the trace, the balancing and the residuals
    all come from the nonzeros, so both give the same bits. The eigenpairs
    are sorted by (re, im).

    With vectors=False, dgeev computes no eigenvectors and the result's
    eigenvectors are None. The trace and conjugation checks still cover
    every eigenvalue, but only the deciding eigenvalue has its residual
    checked, against the same bound: its eigenvector comes from
    lapack.inverse_iteration on the balanced matrix, in the operator's
    band_order, and the other residuals are NaN. The deciding eigenvalue
    is _deciding_index of the eigenvalues the caller's verdict reads:
    reads, given the sorted eigenvalues as a SpectrumResult without
    eigenvectors or residuals, returns their distinct indices in any
    order; where reads is None or returns none, every eigenvalue is read.
    This serves a caller that reads max |Im| over those eigenvalues alone,
    as every threshold search does. The result is that of the full solve
    (vectors=True) of the same operator, eigenvectors included, where the
    operator carries no band_order (a dense array never does), and where
    that residual misses the bound: two steps of inverse iteration need not
    resolve a defective eigenvalue, as at an exceptional point, and the
    full solve checks every eigenpair instead.
    """
    start = time.perf_counter()
    if not isinstance(operator, SparseOperator):
        dense = np.asarray(operator)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        operator = SparseOperator(len(dense), rows, cols, dense[rows, cols])
    vectors = vectors or operator.band_order is None
    dim, dtype = operator.dimension, operator.values.dtype
    if dtype.kind not in "biuf":
        raise ValueError(f"expected a real matrix, got dtype {dtype}")
    cap = resolve_capacity(capacity)
    if dim > cap:
        raise CapacityError(f"matrix dimension {dim} exceeds capacity {cap}")

    rows, cols, values = _entries(operator)
    # max_i sum_j |H_ij|, each row summed in row-major order
    norm = float(np.bincount(rows, weights=np.abs(values),
                             minlength=dim).max(initial=0.0))
    # each residual sums dim squares of at most (2 norm)^2: see
    # _entry_residuals. An infinite or NaN entry fails here too
    limit = np.sqrt(np.finfo(float).max / max(dim, 1)) / 2
    if not norm <= limit:
        raise ValueError(f"matrix norm {norm:.3e} must be finite and at most "
                         f"{limit:.3e} for residuals of dimension {dim}")
    trace = np.sum(values[rows == cols])
    gathered = time.perf_counter()

    sweeps: Dict[str, float] = {}
    diag, balanced = _balance(dim, rows, cols, values, sweeps)
    balanced_at = time.perf_counter()
    eigenvalues, eigenvectors = lapack.geev(dim, rows, cols, balanced,
                                            vectors)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    if vectors:
        _permute_columns(eigenvectors, order)
    solved = time.perf_counter()

    if vectors:
        residuals = _entry_residuals(rows, cols, values, diag, eigenvalues,
                                     eigenvectors)
        worst = int(np.argmax(residuals)) if dim else 0
    else:
        residuals = np.full(dim, np.nan)
        picked = [] if reads is None else reads(
            SpectrumResult(eigenvalues, None, residuals, norm))
        picked = np.sort(picked) if len(picked) else np.arange(dim)
        worst = int(picked[_deciding_index(eigenvalues[picked])]) if dim else 0
        if dim:
            # an exactly zero pivot (the shift is an exact eigenvalue of an
            # exact matrix) leaves the residual NaN, a miss like any other
            try:
                x = lapack.inverse_iteration(dim, rows, cols, balanced,
                                             eigenvalues[worst],
                                             operator.band_order)
            except np.linalg.LinAlgError:
                pass
            else:
                residuals[worst] = _entry_residuals(
                    rows, cols, values, diag, eigenvalues[worst:worst + 1],
                    x[:, np.newaxis])[0]
    bound = RESIDUAL_RTOL * max(norm, 1e-300)
    if dim and not residuals[worst] <= bound:
        if not vectors:
            return eigendecompose(operator, capacity, vectors=True)
        raise ConvergenceError(f"eigenpair residual {residuals[worst]:.3e} at index "
                               f"{worst} exceeds bound {bound:.3e}")

    trace_gap = abs(np.sum(eigenvalues) - trace)
    if trace_gap > TRACE_RTOL * max(norm, 1e-300) * max(dim, 1):
        raise ConvergenceError(f"eigenvalue sum deviates from trace by {trace_gap:.3e}")

    _check_conjugate_closure(eigenvalues)

    spread = float(np.log10(diag.max() / diag.min())) if dim else 0.0
    diagnostics = {"densify_s": gathered - start,
                   "balance_s": balanced_at - gathered,
                   "geev_s": solved - balanced_at,
                   "verify_s": time.perf_counter() - solved,
                   **sweeps, "balance_log10_spread": spread}
    return SpectrumResult(eigenvalues=eigenvalues,
                          eigenvectors=eigenvectors,
                          residuals=residuals,
                          matrix_norm=norm,
                          diagnostics=diagnostics)


def _deciding_index(eigenvalues: np.ndarray) -> int:
    """Index of the eigenvalue that decides max |Im| of a spectrum sorted by
    (re, im): the first of largest |Im|, or, where every |Im| is zero,
    whatever the dtype, the lower member of the closest adjacent pair, the
    two that would meet and turn complex first; 0 for fewer than two
    eigenvalues."""
    if eigenvalues.imag.any():
        return int(np.argmax(np.abs(eigenvalues.imag)))
    if len(eigenvalues) < 2:
        return 0
    return int(np.argmin(np.diff(eigenvalues.real)))


def _permute_columns(vectors: np.ndarray, order: np.ndarray) -> None:
    """vectors[:, i] = vectors[:, order[i]] for every i, in place: each
    cycle of the permutation moves its columns along through one spare
    column."""
    spare = np.empty(vectors.shape[0], vectors.dtype)
    order = order.tolist()
    for start in range(len(order)):
        if order[start] == start:
            continue
        spare[:] = vectors[:, start]
        i = start
        while order[i] != start:
            vectors[:, i] = vectors[:, order[i]]
            order[i], i = i, order[i]
        vectors[:, i] = spare
        order[i] = i


def _entry_residuals(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     diag: np.ndarray, eigenvalues: np.ndarray,
                     eigenvectors: np.ndarray) -> np.ndarray:
    """Turn the eigenvectors Y of the balanced matrix, for the eigenvalues
    w (all n or fewer), into unit eigenvectors X of H in place, and return
    the column norms of H X - X diag(w), from the row-major nonzeros of H.
    Raises ConvergenceError on a zero vector. No unit column has an entry
    above 1 in modulus and |w| <= norm(H, inf), so every entry of
    H X - X diag(w), and each partial sum of it, is at most 2 norm(H, inf)
    in modulus: a column's sum of n squares is finite for
    norm(H, inf) <= sqrt(max float / n) / 2, which eigendecompose checks.

    One pass, GATHER columns at a time, each block a view of Y^T (C-ordered
    for the Fortran-ordered Y of geev) whose rows are scaled by the
    balancing diagonal d and divided by their norms in place. The squares
    are summed down each column in row order, as np.linalg.norm(X, axis=0)
    sums them on a C-ordered X, so the unit vectors keep its bits. Each
    row's entries are padded to the longest row, so slot k of every row is
    one gather, and within a block that gather is one flat fancy index:
    O(n * longest row) work per column, and temporaries of a few GATHER x n
    arrays."""
    dim = len(diag)
    counts = np.bincount(rows, minlength=dim)
    width = int(counts.max()) if len(rows) else 0
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    weight = np.zeros((width, dim), np.result_type(values, eigenvectors))
    weight[slot, rows] = values
    # flat position of entry (slot k, row r) in row b of the block
    index = np.zeros((width, 1, dim), dtype=np.intp)
    index[slot, 0, rows] = cols
    index = index + dim * np.arange(GATHER)[:, np.newaxis]
    residuals = np.empty(len(eigenvalues))
    for j in range(0, len(eigenvalues), GATHER):
        block = eigenvectors[:, j:j + GATHER].T
        block *= diag
        norms = np.sqrt(np.cumsum((block.conj() * block).real, axis=1)[:, -1])
        if np.any(norms == 0.0):
            raise ConvergenceError("eigensolver returned a zero eigenvector")
        block /= norms[:, np.newaxis]
        flat = block.reshape(-1)
        image = block * -eigenvalues[j:j + GATHER, np.newaxis]
        for k in range(width):
            term = flat[index[k, :len(block)]]
            term *= weight[k]
            image += term
        residuals[j:j + GATHER] = np.linalg.norm(image, axis=1)
    return residuals


def max_imag(result: SpectrumResult) -> float:
    """Largest imaginary part over the spectrum (signed, not absolute)."""
    return float(np.max(result.eigenvalues.imag))


def is_spectrum_real(result: SpectrumResult, eps_im: Optional[float] = None) -> bool:
    """Whether all eigenvalues are real within eps_im (default scales with
    the matrix norm)."""
    eps = default_eps_im(result.matrix_norm) if eps_im is None else eps_im
    check_eps_im(eps)
    return float(np.max(np.abs(result.eigenvalues.imag))) <= eps
