"""Verified dense non-symmetric eigendecomposition.

A solve densifies the operator, balances it (a diagonal similarity
scaling), and runs LAPACK dgeev in place on the balanced matrix through
lapack.geev, which calls numpy's own OpenBLAS and falls back to
np.linalg.eig where that library cannot be bound or the input is complex.
Both give the same bits; the in-place call keeps about half the memory.

Every decomposition is checked before it is returned: per-eigenpair
residuals against a norm-scaled tolerance, computed against the original
matrix, the trace identity, and (for real input) closure of the spectrum
under complex conjugation. A failed check raises ConvergenceError rather
than returning silently wrong data.
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
# eigenvector rows (normalisation) or columns (residuals) per block: bounds
# the temporaries of both passes to a few 64 x n arrays
BLOCK = 64


class ConvergenceError(RuntimeError):
    """Eigensolver output failed residual, trace, or conjugation checks."""


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues, right eigenvectors (columns), residuals, the infinity
    norm of the matrix that produced them, and the solve's diagnostics:
    seconds per stage (densify_s, balance_s, geev_s, verify_s), the balance
    sweeps applied and their cap, and log10(max d / min d) of the balancing
    scale d."""

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


def _balance(matrix: np.ndarray,
             diagnostics: Optional[Dict[str, float]] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal similarity scaling that equalizes row and column weight.

    Skin-effect matrices are strongly non-normal, which makes their
    eigenvalues ill-conditioned for QR iteration. Scaling D^-1 H D toward
    balanced row/column sums restores near-normality without changing the
    spectrum. Returns the rescaled matrix and the diagonal of D.

    The sweeps and the final rescale work on the off-diagonal nonzeros
    alone, so each costs O(nnz) rather than O(n^2); only finding the
    nonzeros and zeroing the output touch every entry. The sweep cap, which
    shrinks with n, is the one the dense sweeps had: on the larger ladder
    sectors the stop test does not fire before it, so the cap decides D,
    and keeping it keeps D, the eigenvalues and the eigenvectors what the
    dense sweeps gave up to rounding in the row sums. If given, diagnostics
    receives the sweeps applied and the cap. The rescaled matrix is a new
    Fortran-ordered array, ready for LAPACK to overwrite.
    """
    n = matrix.shape[0]
    cap = min(1000, 12 + int(4e7) // (n * n)) if n > 1 else 0
    rows, cols = np.nonzero(matrix)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    values = matrix[rows, cols]
    work = np.abs(values).astype(float)
    d = np.ones(n)
    applied = 0
    for _ in range(cap):
        col = np.bincount(cols, weights=work, minlength=n)
        row = np.bincount(rows, weights=work, minlength=n)
        active = (col > 0.0) & (row > 0.0)
        factor = np.sqrt(np.divide(row, col, out=np.ones(n), where=active))
        np.clip(factor, 0.25, 4.0, out=factor)
        np.clip(factor, 1e-12 / d, 1e12 / d, out=factor)
        if np.max(np.abs(np.log(factor))) < 1e-10:
            break
        d *= factor
        work = work * factor[cols] / factor[rows]
        applied += 1
    if diagnostics is not None:
        diagnostics.update(balance_sweeps=applied, balance_sweep_cap=cap)
    # one rescale of the original entries keeps rounding to a single step;
    # the diagonal is left unscaled, so its entries stay exact
    balanced = np.zeros(matrix.shape, np.result_type(matrix, d), order="F")
    balanced[rows, cols] = values * (d[cols] / d[rows])
    np.fill_diagonal(balanced, matrix.diagonal())
    return balanced, d


def _check_conjugate_closure(eigenvalues: np.ndarray) -> None:
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    conj = np.conj(eigenvalues)
    order_c = np.lexsort((conj.imag, conj.real))
    if not np.allclose(eigenvalues[order], conj[order_c],
                       rtol=0.0, atol=CONJ_ATOL):
        raise ConvergenceError("spectrum of a real matrix is not closed under "
                               "complex conjugation within tolerance")


def eigendecompose(operator: Union[SparseOperator, np.ndarray],
                   tol: float = 1e-9,
                   capacity: Optional[int] = None) -> SpectrumResult:
    """Full eigendecomposition with mandatory verification.

    Accepts a SparseOperator or a dense square array. Raises CapacityError
    when the dimension exceeds the size budget, ConvergenceError when any
    eigenpair residual exceeds tol * norm(H, inf) or the trace or
    conjugation checks fail.

    Apart from a dense input array, the balanced matrix is the only dense
    copy alive while LAPACK runs: a SparseOperator's dense form is dropped
    before the solve and rebuilt for the residuals, and lapack.geev
    overwrites the balanced matrix in place.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    start = time.perf_counter()
    sparse = isinstance(operator, SparseOperator)
    if sparse:
        dim = operator.dimension
        cap = resolve_capacity(capacity)
        if dim > cap:
            raise CapacityError(f"matrix dimension {dim} exceeds capacity {cap}")
        matrix = operator.to_dense()
    else:
        matrix = np.asarray(operator)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        dim = matrix.shape[0]
        cap = resolve_capacity(capacity)
        if dim > cap:
            raise CapacityError(f"matrix dimension {dim} exceeds capacity {cap}")

    real_input = not np.iscomplexobj(matrix)
    norm = float(np.max(np.sum(np.abs(matrix), axis=1))) if dim else 0.0
    trace = np.trace(matrix)
    densified = time.perf_counter()

    sweeps: Dict[str, float] = {}
    *balanced, diag = _balance(matrix, sweeps)
    if sparse:
        matrix = None
    balanced_at = time.perf_counter()
    # popping hands lapack.geev the only reference, so the balanced matrix
    # is freed before the eigenvectors are unpacked
    eigenvalues, eigenvectors = lapack.geev(balanced.pop())
    eigenvectors *= diag[:, np.newaxis]

    scales = _column_norms(eigenvectors)
    if np.any(scales == 0.0):
        raise ConvergenceError("eigensolver returned a zero eigenvector")
    eigenvectors /= scales
    solved = time.perf_counter()

    if sparse:
        matrix = operator.to_dense()
    residuals = _residuals(matrix, eigenvalues, eigenvectors)
    bound = tol * max(norm, 1e-300)
    worst = int(np.argmax(residuals)) if dim else 0
    if dim and residuals[worst] > bound:
        raise ConvergenceError(f"eigenpair residual {residuals[worst]:.3e} at index "
                               f"{worst} exceeds bound {bound:.3e}")

    trace_gap = abs(np.sum(eigenvalues) - trace)
    if trace_gap > TRACE_RTOL * max(norm, 1e-300) * max(dim, 1):
        raise ConvergenceError(f"eigenvalue sum deviates from trace by {trace_gap:.3e}")

    if real_input and dim:
        _check_conjugate_closure(eigenvalues)

    spread = float(np.log10(diag.max() / diag.min())) if dim else 0.0
    diagnostics = {"densify_s": densified - start,
                   "balance_s": balanced_at - densified,
                   "geev_s": solved - balanced_at,
                   "verify_s": time.perf_counter() - solved,
                   **sweeps, "balance_log10_spread": spread}
    return SpectrumResult(eigenvalues=eigenvalues,
                          eigenvectors=eigenvectors,
                          residuals=residuals,
                          matrix_norm=norm,
                          diagnostics=diagnostics)


def _column_norms(vectors: np.ndarray) -> np.ndarray:
    """np.linalg.norm(vectors, axis=0) for a C-ordered array, without its
    two full-size temporaries: the same squares, summed down the rows in
    the same order, a block of rows at a time."""
    sums = np.zeros(vectors.shape[1])
    for start in range(0, len(vectors), BLOCK):
        rows = vectors[start:start + BLOCK]
        for square in (rows.conj() * rows).real:
            sums += square
    return np.sqrt(sums)


def _residuals(matrix: np.ndarray, eigenvalues: np.ndarray,
               eigenvectors: np.ndarray) -> np.ndarray:
    """Column norms of H X - X diag(w), a block of columns at a time. A real
    H times complex columns is one real product on their float64 view."""
    dim = len(eigenvalues)
    residuals = np.empty(dim)
    split = not np.iscomplexobj(matrix) and np.iscomplexobj(eigenvectors)
    for j in range(0, dim, BLOCK):
        block = eigenvectors[:, j:j + BLOCK]
        if split:
            image = (matrix @ block.view(np.float64)).view(np.complex128)
        else:
            image = matrix @ block
        image -= block * eigenvalues[j:j + BLOCK]
        residuals[j:j + BLOCK] = np.linalg.norm(image, axis=0)
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
