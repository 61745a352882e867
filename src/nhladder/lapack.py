"""In-place LAPACK `dgeev` and the BLAS thread count, through numpy's own
OpenBLAS.

numpy's Linux and Windows wheels bundle an ILP64 OpenBLAS (64-bit
integers, symbols suffixed `64_`) in `numpy.libs`. `np.linalg.eig` calls
its `dgeev` on a private copy of the input and keeps about five n x n
buffers of its own. `geev` calls the same routine in place on a matrix from
`matrix(n)`, the first half of one buffer of 2n^2 floats that the caller
passes along: dgeev writes the eigenvectors into the second half, and
complex eigenvectors are unpacked over the whole buffer, so a solve holds
two real n x n arrays. `threads`
sets the size of the OpenBLAS thread pool for a block of code.

The library is found and bound on first use, so importing the package
costs nothing. Where it is missing (another BLAS, a source build, a wheel
that renamed its symbols), `geev` runs `np.linalg.eig`, `threads` leaves
the thread count alone and `symbol()` is None.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

# symbol prefixes of numpy's OpenBLAS, newest wheels first
_PREFIXES = ("scipy_", "")
# eigenvector columns unpacked per block
BLOCK = 64


class _Binding:
    """The three bound entry points and the name of the dgeev symbol."""

    def __init__(self, lib: ctypes.CDLL, prefix: str):
        self.symbol = f"{prefix}dgeev_64_"
        self.dgeev = getattr(lib, self.symbol)
        self.set_threads = getattr(lib, f"{prefix}openblas_set_num_threads64_")
        self.get_threads = getattr(lib, f"{prefix}openblas_get_num_threads64_")
        i64 = ctypes.POINTER(ctypes.c_int64)
        ptr = ctypes.c_void_p
        # JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR, LDVR, WORK, LWORK,
        # INFO, then the hidden lengths of the two Fortran strings
        self.dgeev.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, ptr, i64,
                               ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64,
                               ctypes.c_size_t, ctypes.c_size_t]
        self.dgeev.restype = None
        self.set_threads.argtypes, self.set_threads.restype = [ctypes.c_int], None
        self.get_threads.argtypes, self.get_threads.restype = [], ctypes.c_int


@functools.lru_cache(maxsize=None)
def _bind() -> Optional[_Binding]:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            try:
                return _Binding(lib, prefix)
            except AttributeError:
                continue
    return None


def symbol() -> Optional[str]:
    """Name of the bound dgeev symbol, or None on the np.linalg.eig path."""
    binding = _bind()
    return binding.symbol if binding else None


def get_threads() -> Optional[int]:
    """Current size of the OpenBLAS thread pool, or None when unbound."""
    binding = _bind()
    return binding.get_threads() if binding else None


def set_threads(n: int) -> Optional[int]:
    """Set the OpenBLAS pool size; returns the previous size, or None (and
    changes nothing) when unbound."""
    binding = _bind()
    if binding is None:
        return None
    previous = binding.get_threads()
    binding.set_threads(int(n))
    return previous


@contextmanager
def threads(n: int) -> Iterator[None]:
    """Run the block with OpenBLAS at n threads, then restore the previous
    count, also when the block raises."""
    previous = set_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_threads(previous)


def matrix(n: int) -> np.ndarray:
    """A zeroed, Fortran-ordered n x n float64 array for `geev` to overwrite:
    the first half of a buffer of 2n^2 floats, its `.base`, which `geev`
    takes as `buffer` to fill with the eigenvectors."""
    return np.zeros(2 * n * n)[:n * n].reshape((n, n), order="F")


def geev(a: np.ndarray, buffer: Optional[np.ndarray] = None
         ) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors (columns) of a square matrix, as
    `np.linalg.eig` returns them: real arrays when every eigenvalue is real,
    complex ones otherwise, the eigenvectors Fortran-ordered.

    A Fortran-ordered, writable float64 `a` is overwritten; any other real
    input is first copied into one. `buffer`, when given, is the 1-D array
    of 2n^2 floats whose first half is `a`, as `matrix(n).base` is: the
    eigenvectors are views of it and the solve allocates nothing of order
    n^2. Without it they take a new buffer, and no memory but `a` is
    written. Complex input, and any input when the library is not bound,
    goes to `np.linalg.eig`.
    """
    binding = _bind()
    if binding is None or np.iscomplexobj(a):
        values, vectors = np.linalg.eig(a)
        return values, np.asfortranarray(vectors)
    a = np.require(a, dtype=np.float64, requirements=["F", "W"])
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError("Last 2 dimensions of the array must be square")
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if buffer is None:
        buffer = np.zeros(2 * n * n)
    elif not (buffer.shape == (2 * n * n,) and buffer.dtype == np.float64
              and buffer.flags.c_contiguous and buffer.flags.writeable
              and buffer.ctypes.data == a.ctypes.data):
        raise ValueError("buffer must be the 2n^2 floats whose first half is a")
    vr = buffer[n * n:].reshape((n, n), order="F")
    wr, wi = np.empty(n), np.empty(n)
    query = np.empty(1)
    if _dgeev(binding, a, wr, wi, vr, query, -1) != 0:
        raise RuntimeError("dgeev workspace query failed")
    status = _dgeev(binding, a, wr, wi, vr, np.empty(max(1, int(query[0]))),
                    int(query[0]))
    del a
    if status > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if status < 0:
        raise RuntimeError(f"dgeev rejected argument {-status}")
    if not wi.any():
        return wr, vr
    values = np.empty(n, dtype=np.complex128)
    values.real, values.imag = wr, wi
    return values, _unpack(buffer, vr, wi > 0.0)


def _unpack(buffer: np.ndarray, vr: np.ndarray,
            first: np.ndarray) -> np.ndarray:
    """dgeev's real eigenvector columns as complex ones, in place over the
    whole buffer, whose second half is vr. A conjugate pair (first[j], then
    wi < 0) stores re and im of its first vector in columns j and j + 1; the
    second vector is the conjugate.

    Complex column j takes floats 2jn to 2(j + 1)n of the buffer, which
    hold vr columns j + 1 and below, so a block of columns is copied out of
    vr before it is written, and no block ends inside a pair."""
    n = len(first)
    vectors = buffer.view(np.complex128).reshape((n, n), order="F")
    start = 0
    while start < n:
        stop = min(start + BLOCK, n)
        stop += bool(first[stop - 1])
        source = vr[:, start:stop].copy()
        pairs = np.flatnonzero(first[start:stop])
        block = vectors[:, start:stop]
        block.real = source
        block.imag = 0.0
        block.imag[:, pairs] = source[:, pairs + 1]
        block[:, pairs + 1] = block[:, pairs].conj()
        start = stop
    return vectors


def _dgeev(binding: _Binding, a: np.ndarray, wr: np.ndarray, wi: np.ndarray,
           vr: np.ndarray, work: np.ndarray, lwork: int) -> int:
    """One dgeev call, JOBVL='N' and JOBVR='V'; returns INFO."""
    n = ctypes.c_int64(a.shape[0])
    one = ctypes.c_int64(1)
    info = ctypes.c_int64(0)
    binding.dgeev(b"N", b"V", n, a.ctypes.data, n, wr.ctypes.data,
                  wi.ctypes.data, None, one, vr.ctypes.data, n,
                  work.ctypes.data, ctypes.c_int64(lwork), info, 1, 1)
    return info.value
