"""Verified dense non-symmetric eigendecomposition of real matrices.

Every Hamiltonian of the model is real, so a solve takes real input only: a
real SparseOperator or a real dense array, which both go the same way. A
solve gathers the nonzeros of the operator, balances them (a diagonal
similarity scaling) into the first half of a buffer of 2n^2 floats, and runs
LAPACK dgeev in place there through lapack.geev, which writes the
eigenvectors into the second half and unpacks complex ones over the whole
buffer. geev calls numpy's own OpenBLAS and falls back to np.linalg.eig
where that library cannot be bound; both give the same bits. No operator is
made dense: apart from the buffer, a solve holds O(nnz) entries and
O(n * BLOCK) temporaries.

Every decomposition is checked before it is returned: per-eigenpair
residuals against a norm-scaled tolerance, computed from the nonzeros of the
original matrix, the trace identity, and closure of the spectrum under
complex conjugation. A failed check raises ConvergenceError rather than
returning silently wrong data. The eigenpairs come out sorted by real part,
then imaginary part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from . import lapack
from .fock import CapacityError, resolve_capacity
from .model import SparseOperator

TRACE_RTOL = 1e-8
CONJ_ATOL = 1e-10
# matrix rows (norm), eigenvector rows (normalisation) or columns
# (residuals) per block: bounds the temporaries of each pass to a few 64 x n
# arrays
BLOCK = 64
# eigenvector columns per gather of the residuals from the nonzeros
GATHER = 16


class ConvergenceError(RuntimeError):
    """Eigensolver output failed residual, trace, or conjugation checks."""


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by real part, then imaginary part; right
    eigenvectors (columns of a Fortran-ordered array) in the same order;
    residuals; the infinity norm of the matrix that produced them; and the
    solve's diagnostics: seconds per stage (densify_s, which times gathering
    the nonzeros, balance_s, geev_s, verify_s), the balance sweeps applied
    and their cap, and log10(max d / min d) of the balancing scale d."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
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


def _entries(operator: Union[SparseOperator, np.ndarray]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of a dense array or of a
    SparseOperator, in row-major order. COO duplicates are summed in input
    order, as np.add.at sums them into a dense matrix, so each value has
    the bits of the dense entry."""
    if not isinstance(operator, SparseOperator):
        rows, cols = np.nonzero(operator)
        return rows, cols, operator[rows, cols]
    dim = operator.dimension
    keys = operator.rows.astype(np.int64) * dim + operator.cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    values = np.zeros(np.count_nonzero(first), operator.values.dtype)
    np.add.at(values, np.cumsum(first) - 1, operator.values[order])
    kept = values != 0
    keys = keys[first][kept]
    return keys // dim, keys % dim, values[kept]


def _norm(dim: int, rows: np.ndarray, cols: np.ndarray,
          values: np.ndarray) -> float:
    """max_i sum_j |H_ij| from the row-major nonzeros, with the bits of
    np.sum(np.abs(H), axis=1) on the dense H: the same pairwise sums over
    zero-filled rows, BLOCK rows at a time."""
    norm = 0.0
    bounds = np.searchsorted(rows, np.arange(0, dim + BLOCK, BLOCK))
    for k, start in enumerate(range(0, dim, BLOCK)):
        lo, hi = bounds[k], bounds[k + 1]
        slab = np.zeros((min(BLOCK, dim - start), dim))
        slab[rows[lo:hi] - start, cols[lo:hi]] = np.abs(values[lo:hi])
        norm = max(norm, float(np.max(slab.sum(axis=1))))
    return norm


def _balance(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
             out: np.ndarray,
             diagnostics: Optional[Dict[str, float]] = None) -> np.ndarray:
    """Diagonal similarity scaling that equalizes row and column weight.

    Skin-effect matrices are strongly non-normal, which makes their
    eigenvalues ill-conditioned for QR iteration. Scaling D^-1 H D toward
    balanced row/column sums restores near-normality without changing the
    spectrum. Takes the nonzeros of H (rows, cols, values), writes D^-1 H D
    into the zeroed n x n array out and returns the diagonal of D.

    The sweeps and the rescale work on the off-diagonal nonzeros alone, so
    each costs O(nnz) rather than O(n^2). The sweep cap, which shrinks with
    n, is the one the dense sweeps had: on the larger ladder sectors the
    stop test does not fire before it, so the cap decides D, and keeping it
    keeps D, the eigenvalues and the eigenvectors what the dense sweeps gave
    up to rounding in the row sums. If given, diagnostics receives the
    sweeps applied and the cap.
    """
    n = out.shape[0]
    cap = min(1000, 12 + int(4e7) // (n * n)) if n > 1 else 0
    off = rows != cols
    off_rows, off_cols = rows[off], cols[off]
    work = np.abs(values[off]).astype(float)
    d = np.ones(n)
    applied = 0
    for _ in range(cap):
        col = np.bincount(off_cols, weights=work, minlength=n)
        row = np.bincount(off_rows, weights=work, minlength=n)
        active = (col > 0.0) & (row > 0.0)
        factor = np.sqrt(np.divide(row, col, out=np.ones(n), where=active))
        np.clip(factor, 0.25, 4.0, out=factor)
        np.clip(factor, 1e-12 / d, 1e12 / d, out=factor)
        if np.max(np.abs(np.log(factor))) < 1e-10:
            break
        d *= factor
        work = work * factor[off_cols] / factor[off_rows]
        applied += 1
    if diagnostics is not None:
        diagnostics.update(balance_sweeps=applied, balance_sweep_cap=cap)
    # one rescale of the original entries keeps rounding to a single step;
    # on the diagonal d / d is exactly 1, so those entries stay exact
    out[rows, cols] = values * (d[cols] / d[rows])
    return d


def _check_conjugate_closure(eigenvalues: np.ndarray) -> None:
    """Closure under conjugation of eigenvalues sorted by (re, im)."""
    conj = np.conj(eigenvalues)
    order_c = np.lexsort((conj.imag, conj.real))
    if not np.allclose(eigenvalues, conj[order_c], rtol=0.0, atol=CONJ_ATOL):
        raise ConvergenceError("spectrum of a real matrix is not closed under "
                               "complex conjugation within tolerance")


def eigendecompose(operator: Union[SparseOperator, np.ndarray],
                   tol: float = 1e-9,
                   capacity: Optional[int] = None) -> SpectrumResult:
    """Full eigendecomposition with mandatory verification.

    Accepts a real SparseOperator or a real dense square array; complex
    input raises ValueError. Raises CapacityError when the dimension exceeds
    the size budget, ConvergenceError when any eigenpair residual exceeds
    tol * norm(H, inf) or the trace or conjugation checks fail.

    The solve holds one buffer of two real n x n arrays: the balanced
    matrix, which LAPACK overwrites, and the eigenvectors, which end up
    spread over both halves when complex. Dense or sparse, the norm, the
    trace, the balancing and the residuals all come from the nonzeros, so
    both give the same bits. The eigenpairs are sorted by (re, im).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    start = time.perf_counter()
    if isinstance(operator, SparseOperator):
        dim, dtype = operator.dimension, operator.values.dtype
    else:
        operator = np.asarray(operator)
        if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {operator.shape}")
        dim, dtype = len(operator), operator.dtype
    if dtype.kind not in "biuf":
        raise ValueError(f"expected a real matrix, got dtype {dtype}")
    cap = resolve_capacity(capacity)
    if dim > cap:
        raise CapacityError(f"matrix dimension {dim} exceeds capacity {cap}")

    rows, cols, values = _entries(operator)
    norm = _norm(dim, rows, cols, values)
    trace = np.sum(values[rows == cols])
    gathered = time.perf_counter()

    sweeps: Dict[str, float] = {}
    balanced = lapack.matrix(dim)
    diag = _balance(rows, cols, values, balanced, sweeps)
    balanced_at = time.perf_counter()
    eigenvalues, eigenvectors = lapack.geev(balanced)
    del balanced
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    _permute_columns(eigenvectors, order)
    eigenvectors *= diag[:, np.newaxis]

    scales = _column_norms(eigenvectors)
    if np.any(scales == 0.0):
        raise ConvergenceError("eigensolver returned a zero eigenvector")
    eigenvectors /= scales
    solved = time.perf_counter()

    residuals = _entry_residuals(rows, cols, values, eigenvalues, eigenvectors)
    bound = tol * max(norm, 1e-300)
    worst = int(np.argmax(residuals)) if dim else 0
    if dim and residuals[worst] > bound:
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


def _column_norms(vectors: np.ndarray) -> np.ndarray:
    """np.linalg.norm(vectors, axis=0) of a C-ordered array, for an array of
    any order and without its two full-size temporaries: the same squares,
    summed down the rows in the same order, a block of rows at a time."""
    sums = np.zeros(vectors.shape[1])
    for start in range(0, len(vectors), BLOCK):
        rows = vectors[start:start + BLOCK]
        for square in (rows.conj() * rows).real:
            sums += square
    return np.sqrt(sums)


def _entry_residuals(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     eigenvalues: np.ndarray,
                     eigenvectors: np.ndarray) -> np.ndarray:
    """Column norms of H X - X diag(w) from the row-major nonzeros of H.

    Each row's entries are padded to the longest row, so slot k of every
    row is one gather. GATHER columns of X at a time, held as the rows of a
    C-ordered block of X^T (a view for a Fortran-ordered X), that gather is
    one flat fancy index: O(n * longest row) work per column, and
    temporaries of a few GATHER x n arrays."""
    dim = len(eigenvalues)
    counts = np.bincount(rows, minlength=dim)
    width = int(counts.max()) if len(rows) else 0
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    weight = np.zeros((width, dim), np.result_type(values, eigenvectors))
    weight[slot, rows] = values
    # flat position of entry (slot k, row r) in row b of the block
    index = np.zeros((width, 1, dim), dtype=np.intp)
    index[slot, 0, rows] = cols
    index = index + dim * np.arange(GATHER)[:, np.newaxis]
    residuals = np.empty(dim)
    for j in range(0, dim, GATHER):
        block = np.ascontiguousarray(eigenvectors[:, j:j + GATHER].T)
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
