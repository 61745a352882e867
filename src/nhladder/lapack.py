"""In-place LAPACK `dgeev`, the BLAS thread count and the solve budget,
through numpy's own OpenBLAS.

numpy's Linux and Windows wheels bundle an ILP64 OpenBLAS (64-bit
integers, symbols suffixed `64_`) in `numpy.libs`. `np.linalg.eig` calls
its `dgeev` on a private copy of the input and keeps about five n x n
buffers of its own. `geev` takes the nonzeros of a real matrix and calls
the same routine in place, in the one buffer it allocates and describes.
`threads` sets the size of the OpenBLAS thread pool for a block of code,
and `solve_lanes` is how many such solves a threshold search runs at once.

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


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def solve_lanes() -> int:
    """Solves a threshold search runs at once: min(2, usable cores), or 1
    where dgeev is not bound. Each in-place solve holds one buffer of two
    real D x D arrays, so two lanes hold fewer than one np.linalg.eig
    solve, which keeps about five; a third lane would hold six."""
    if symbol() is None:
        return 1
    return min(2, usable_cores())


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


def geev(n: int, rows: np.ndarray, cols: np.ndarray,
         values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors (columns) of the real n x n matrix
    with the given distinct nonzeros, as `np.linalg.eig` returns them: real
    arrays when every eigenvalue is real, complex ones otherwise, the
    eigenvectors Fortran-ordered. Raises ValueError unless the values are
    real and finite.

    The nonzeros are scattered into the first half of a zeroed buffer of
    2n^2 floats, and dgeev runs in place there: it overwrites the matrix and
    writes the eigenvectors into the second half. A real result is then
    copied over the spent matrix and the buffer shrunk to n^2 floats, so it
    keeps one n x n array; complex eigenvectors are unpacked over the whole
    buffer. The solve thus holds two real n x n arrays at most. Where the
    library is not bound, `np.linalg.eig` solves a copy of the first half.
    """
    if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
        raise ValueError("expected finite real nonzeros")
    buffer = np.zeros(2 * n * n)
    a = buffer[:n * n].reshape((n, n), order="F")
    a[rows, cols] = values
    binding = _bind()
    if binding is None:
        values, vectors = np.linalg.eig(a)
        return values, np.asfortranarray(vectors)
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    vr = buffer[n * n:].reshape((n, n), order="F")
    wr, wi = np.empty(n), np.empty(n)
    query = np.empty(1)
    if _dgeev(binding, a, wr, wi, vr, query, -1) != 0:
        raise RuntimeError("dgeev workspace query failed")
    status = _dgeev(binding, a, wr, wi, vr, np.empty(max(1, int(query[0]))),
                    int(query[0]))
    if status > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if status < 0:
        raise RuntimeError(f"dgeev rejected argument {-status}")
    if not wi.any():
        a[:] = vr
        del a, vr
        # numpy's reference check raises if a view of the buffer is left
        buffer.resize(n * n)
        return wr, buffer.reshape((n, n), order="F")
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
