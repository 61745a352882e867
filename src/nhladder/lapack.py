"""In-place LAPACK `dgeev`, the BLAS thread count and the solve budget,
through numpy's own OpenBLAS.

numpy's Linux and Windows wheels bundle an ILP64 OpenBLAS (64-bit
integers, symbols suffixed `64_`) in `numpy.libs`. `np.linalg.eig` calls
its `dgeev` on a private copy of the input and keeps about five n x n
buffers of its own. `geev` takes the nonzeros of a real matrix and calls
the same routine in place, in the one buffer it allocates and describes,
with or without eigenvectors. `inverse_iteration` factors a shifted
sparse matrix as a band, in place with `gbtrf` once, and solves twice
with `gbtrs` from the same library, to check one eigenpair of an
eigenvalue-only solve: O(D kl^2) time and about 3 kl D entries for a
band of kl diagonals on either side. The caller always gives the
numbering that makes the band narrow, as every model operator carries its
sector's. `threads` sets the size of the OpenBLAS thread pool for a
block of code, and `solve_lanes` is how many such solves a threshold
search runs at once.

The library is found and bound on first use, so importing the package
costs nothing. Where it is missing (another BLAS, a source build, a wheel
that renamed its symbols), `geev` runs `np.linalg.eig` or
`np.linalg.eigvals`, `inverse_iteration` runs `np.linalg.solve` on a dense
copy, which factors it again at each of its two steps, `threads`
leaves the thread count alone and `symbol()` is None.
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
    """The bound entry points and the name of the dgeev symbol. gbtrf and
    gbtrs are keyed by numpy dtype character: 'd' real, 'D' complex."""

    def __init__(self, lib: ctypes.CDLL, prefix: str):
        self.symbol = f"{prefix}dgeev_64_"
        self.dgeev = getattr(lib, self.symbol)
        self.set_threads = getattr(lib, f"{prefix}openblas_set_num_threads64_")
        self.get_threads = getattr(lib, f"{prefix}openblas_get_num_threads64_")
        self.gbtrf = {"d": getattr(lib, f"{prefix}dgbtrf_64_"),
                      "D": getattr(lib, f"{prefix}zgbtrf_64_")}
        self.gbtrs = {"d": getattr(lib, f"{prefix}dgbtrs_64_"),
                      "D": getattr(lib, f"{prefix}zgbtrs_64_")}
        i64 = ctypes.POINTER(ctypes.c_int64)
        ptr = ctypes.c_void_p
        # JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR, LDVR, WORK, LWORK,
        # INFO, then the hidden lengths of the two Fortran strings
        self.dgeev.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, ptr, i64,
                               ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64,
                               ctypes.c_size_t, ctypes.c_size_t]
        self.dgeev.restype = None
        for gbtrf, gbtrs in zip(self.gbtrf.values(), self.gbtrs.values()):
            # M, N, KL, KU, AB, LDAB, IPIV, INFO
            gbtrf.argtypes = [i64, i64, i64, i64, ptr, i64, ptr, i64]
            gbtrf.restype = None
            # TRANS, N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO, length
            # of TRANS
            gbtrs.argtypes = [ctypes.c_char_p, i64, i64, i64, i64, ptr, i64,
                              ptr, ptr, i64, i64, ctypes.c_size_t]
            gbtrs.restype = None
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
    real D x D arrays at most (an eigenvalue-only solve holds geev's D x D
    floats, then inverse_iteration's band of (2 kl + ku + 1) x D floats or
    complex, never both; in the ladder sectors of a search, in their band
    order, the band has fewer than D / 2 rows), so two lanes hold fewer
    than one np.linalg.eig solve, which keeps about five; a third lane
    would hold six."""
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


def geev(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
         vectors: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eigenvalues and right eigenvectors (columns) of the real n x n matrix
    with the given distinct nonzeros, as `np.linalg.eig` returns them: real
    arrays when every eigenvalue is real, complex ones otherwise, the
    eigenvectors Fortran-ordered. With vectors=False dgeev runs without
    eigenvectors (JOBVR='N') and the second element is None. Raises
    ValueError unless the values are real and finite.

    The nonzeros are scattered into the first half of a zeroed buffer of
    2n^2 floats, and dgeev runs in place there: it overwrites the matrix and
    writes the eigenvectors into the second half. A real result is then
    copied over the spent matrix and the buffer shrunk to n^2 floats, so it
    keeps one n x n array (where a trace function holds a reference to the
    buffer, numpy refuses the shrink and the result is a view of the whole
    buffer); complex eigenvectors are unpacked over the whole buffer. The
    solve thus holds two real n x n arrays at most. Without eigenvectors
    the buffer is n^2 floats, and it is freed on return. Where the library
    is not bound, `np.linalg.eig` (`np.linalg.eigvals` without
    eigenvectors) solves a copy of the first half.
    """
    if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
        raise ValueError("expected finite real nonzeros")
    buffer = np.zeros((1 + vectors) * n * n)
    a = buffer[:n * n].reshape((n, n), order="F")
    a[rows, cols] = values
    binding = _bind()
    if binding is None:
        if not vectors:
            return np.linalg.eigvals(a), None
        values, vr = np.linalg.eig(a)
        return values, np.asfortranarray(vr)
    if n == 0:
        return np.zeros(0), np.zeros((0, 0)) if vectors else None
    vr = buffer[n * n:].reshape((n, n), order="F") if vectors else None
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
        if not vectors:
            return wr, None
        a[:] = vr
        del a, vr
        # numpy's reference check raises if a view of the buffer is left,
        # or if a trace function holds the frame's locals (Python < 3.13)
        try:
            buffer.resize(n * n)
        except ValueError:
            buffer = buffer[:n * n]
        return wr, buffer.reshape((n, n), order="F")
    values = np.empty(n, dtype=np.complex128)
    values.real, values.imag = wr, wi
    return values, _unpack(buffer, vr, wi > 0.0) if vectors else None


def inverse_iteration(n: int, rows: np.ndarray, cols: np.ndarray,
                      values: np.ndarray, shift: complex,
                      band_order: np.ndarray) -> np.ndarray:
    """An eigenvector estimate of the real n x n matrix B with the given
    distinct nonzeros, for its eigenvalue estimate `shift`: two steps of
    inverse iteration, x <- (B - shift I)^-1 x scaled to a largest modulus
    of 1, from the vector of ones. The vector is real for a real shift,
    complex otherwise.

    B - shift I is factored as a band matrix: its rows and columns are
    renumbered by band_order, the old index of each new position (the
    operators of a model.SectorPlan carry their sector's), which leaves kl
    nonzero diagonals below the main one and ku above. It is scattered
    into LAPACK band storage, one buffer of (2 kl + ku + 1) x n floats for
    a real shift or complex for a complex one. gbtrf factors it in place,
    in O(n kl (kl + ku)) time, and both steps solve (gbtrs) with that one
    factorisation; x comes back in the original numbering. A ladder
    sector in its band order is sparse and its band narrow (kl = 76 at
    n = 816). Where the library is not bound, `np.linalg.solve` does each
    step on a dense n x n copy in B's own numbering and factors it anew
    each time: only the band path factors once. Either way a pivot
    that is exactly zero, as where the shift is an exact eigenvalue of an
    exact matrix, raises LinAlgError: the caller solves in full instead.
    """
    kind = "D" if np.iscomplexobj(shift) else "d"
    binding = _bind()
    if binding is None:
        position = np.arange(n)
        shape, at, diagonal = (n, n), (rows, cols), (position, position)
    else:
        # the new index of each old one
        position = np.argsort(band_order)
        i, j = position[rows], position[cols]
        kl = int(np.max(i - j, initial=0))
        ku = int(np.max(j - i, initial=0))
        shape = (2 * kl + ku + 1, n)
        at, diagonal = (kl + ku + i - j, j), (kl + ku, slice(None))
        pivots = np.empty(n, np.int64)
    a = np.zeros(shape, kind, order="F")
    a[at] = values
    a[diagonal] -= shift
    if binding is not None:
        _gbtrf(binding, a, kl, ku, pivots)
    x = np.ones(n, kind)
    for _ in range(2):
        if binding is None:
            x = np.linalg.solve(a, x)
        else:
            _gbtrs(binding, a, kl, ku, pivots, x)
        x /= np.abs(x).max()
    return x[position]


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
           vr: Optional[np.ndarray], work: np.ndarray, lwork: int) -> int:
    """One dgeev call, JOBVL='N', and JOBVR='V' into vr or 'N' where vr is
    None; returns INFO."""
    n = ctypes.c_int64(a.shape[0])
    info = ctypes.c_int64(0)
    if vr is None:
        jobvr, vr_data, ldvr = b"N", None, ctypes.c_int64(1)
    else:
        jobvr, vr_data, ldvr = b"V", vr.ctypes.data, n
    binding.dgeev(b"N", jobvr, n, a.ctypes.data, n, wr.ctypes.data,
                  wi.ctypes.data, None, ctypes.c_int64(1), vr_data, ldvr,
                  work.ctypes.data, ctypes.c_int64(lwork), info, 1, 1)
    return info.value


def _gbtrf(binding: _Binding, ab: np.ndarray, kl: int, ku: int,
           pivots: np.ndarray) -> None:
    """LU factorisation in place of the band matrix with kl subdiagonals
    and ku superdiagonals in LAPACK band storage ab, a Fortran-ordered
    (2 kl + ku + 1) x n array, real or complex. Raises LinAlgError, as
    np.linalg.solve does, where a pivot is exactly zero."""
    n = ctypes.c_int64(ab.shape[1])
    info = ctypes.c_int64(0)
    binding.gbtrf[ab.dtype.char](n, n, ctypes.c_int64(kl), ctypes.c_int64(ku),
                                 ab.ctypes.data, ctypes.c_int64(ab.shape[0]),
                                 pivots.ctypes.data, info)
    if info.value > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info.value < 0:
        raise RuntimeError(f"gbtrf rejected argument {-info.value}")


def _gbtrs(binding: _Binding, lu: np.ndarray, kl: int, ku: int,
           pivots: np.ndarray, x: np.ndarray) -> None:
    """x <- A^-1 x in place, with the band factorisation of A from
    _gbtrf."""
    n = ctypes.c_int64(lu.shape[1])
    info = ctypes.c_int64(0)
    binding.gbtrs[lu.dtype.char](b"N", n, ctypes.c_int64(kl),
                                 ctypes.c_int64(ku), ctypes.c_int64(1),
                                 lu.ctypes.data, ctypes.c_int64(lu.shape[0]),
                                 pivots.ctypes.data, x.ctypes.data, n, info, 1)
    if info.value != 0:
        raise RuntimeError(f"gbtrs rejected argument {-info.value}")
