import sys
import tracemalloc

import numpy as np
import pytest

from nhladder import lapack
from nhladder.eig import eigendecompose
from nhladder.model import (ModelParams, SparseOperator, build_hamiltonian,
                            sector_basis)

bound = pytest.mark.skipif(lapack.symbol() is None,
                           reason="numpy's OpenBLAS dgeev is not bound here")


def _sector(cells, particles, **kwargs):
    p = ModelParams(cells=cells, particles=particles, **kwargs)
    return build_hamiltonian(p, sector_basis(p))


def read_every(result):
    """reads of a caller whose verdict reads every eigenvalue: passing it
    asks eigendecompose for the eigenvalue-only solve."""
    return np.arange(result.dimension)


SOLVE_INPUTS = {
    "boson L=8 N=2": lambda: _sector(8, 2, jp=0.01, mu=0.2, u=4.0),
    "boson L=6 N=3": lambda: _sector(6, 3, jp=0.5, mu=16 / 3, u=16.0),
    "fermion L=8 N=2": lambda: _sector(8, 2, statistics="fermion", jp=0.01,
                                       mu=0.2, u_nn=4.0),
    "real spectrum L=6 N=1": lambda: _sector(6, 1),
    "n=0": lambda: np.zeros((0, 0)),
    "n=1": lambda: np.array([[2.5]]),
    "n=2": lambda: np.array([[1.0, 2.0], [0.125, -1.0]]),
    "n=2 complex pair": lambda: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    # row and column 1 get no entry in the scatter from nonzeros
    "zero row and column": lambda: np.array([[1.0, 0.0, 2.0],
                                             [0.0, 0.0, 0.0],
                                             [-3.0, 0.0, 4.0]]),
}


@bound
@pytest.mark.parametrize("name", list(SOLVE_INPUTS))
def test_in_place_dgeev_matches_numpy_eig(name, monkeypatch):
    fast = eigendecompose(SOLVE_INPUTS[name]())
    monkeypatch.setattr(lapack, "_bind", lambda: None)
    assert lapack.symbol() is None
    slow = eigendecompose(SOLVE_INPUTS[name]())
    for attr in ("eigenvalues", "eigenvectors"):
        a, b = getattr(fast, attr), getattr(slow, attr)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)  # bit-identical
    w = fast.eigenvalues
    assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(len(w)))
    assert fast.eigenvectors.flags.f_contiguous
    assert slow.eigenvectors.flags.f_contiguous
    assert fast.matrix_norm == slow.matrix_norm
    assert np.all(fast.residuals <= 1e-9 * max(fast.matrix_norm, 1e-300))
    np.testing.assert_allclose(fast.residuals, slow.residuals,
                               rtol=0.0, atol=1e-13 * max(fast.matrix_norm, 1.0))


def _nonzeros(a):
    """geev's arguments for the dense matrix a: n and its nonzeros."""
    rows, cols = np.nonzero(a)
    return len(a), rows, cols, a[rows, cols]


@bound
def test_geev_returns_what_numpy_eig_returns():
    a = np.random.default_rng(8).normal(size=(40, 40))
    values, vectors = lapack.geev(*_nonzeros(a))
    expected_values, expected_vectors = np.linalg.eig(a)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(vectors, expected_vectors)
    assert vectors.flags.f_contiguous


@bound
def test_unpack_in_place_matches_numpy_eig_across_blocks():
    rng = np.random.default_rng(10)
    straddled = False
    for n in (63, 64, 65, 129, 200):
        a = rng.normal(size=(n, n))
        values, vectors = lapack.geev(*_nonzeros(a))
        expected_values, expected_vectors = np.linalg.eig(a)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)
        assert vectors.flags.f_contiguous
        # unpacked over the solve's own buffer of 2n^2 floats
        assert vectors.base is not None and vectors.base.nbytes == 16 * n * n
        # a conjugate pair split by the end of a block
        straddled |= any(values.imag[j - 1] > 0.0
                         for j in range(lapack.BLOCK, n, lapack.BLOCK))
    assert straddled


@bound
def test_real_spectrum_solves_under_a_trace_function():
    # a trace function that reads f_locals (as debuggers do) keeps a
    # reference to geev's buffer on Python < 3.13, so numpy refuses to
    # shrink it; the solve must still give the untraced bits
    p = ModelParams(cells=30, particles=1, jl_a=1.0, jr_a=1.0,
                    jl_b=1.0, jr_b=1.0, jp=0.3)
    ham = build_hamiltonian(p, sector_basis(p))
    plain = eigendecompose(ham)
    assert plain.eigenvalues.dtype == np.float64

    def trace(frame, event, arg):
        frame.f_locals
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        traced = eigendecompose(ham)
    finally:
        sys.settrace(previous)
    for attr in ("eigenvalues", "eigenvectors"):
        a, b = getattr(plain, attr), getattr(traced, attr)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_complex_input_raises_value_error(monkeypatch):
    def refuse(*args):
        raise AssertionError("the solve started on complex input")

    geev = lapack.geev
    monkeypatch.setattr(lapack, "geev", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rows, cols = np.nonzero(m)
    for operator in (m, SparseOperator(12, rows, cols, m[rows, cols])):
        with pytest.raises(ValueError, match="real"):
            eigendecompose(operator)
    with pytest.raises(ValueError, match="real"):
        geev(*_nonzeros(m))


def test_geev_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            lapack.geev(*_nonzeros(np.array([[1.0, bad], [0.0, 1.0]])))


def test_threads_restores_the_pool_size():
    before = lapack.get_threads()
    with lapack.threads(1):
        assert lapack.get_threads() in (1, None)
    assert lapack.get_threads() == before
    with pytest.raises(RuntimeError):
        with lapack.threads(1):
            raise RuntimeError("inside")
    assert lapack.get_threads() == before


def test_unbound_library_changes_nothing(monkeypatch):
    monkeypatch.setattr(lapack, "_bind", lambda: None)
    assert lapack.get_threads() is None
    assert lapack.set_threads(1) is None
    assert lapack.solve_lanes() == 1
    with lapack.threads(1):
        pass
    values, _ = lapack.geev(*_nonzeros(np.array([[2.0, 0.0], [0.0, 3.0]])))
    assert sorted(values) == [2.0, 3.0]
    with pytest.raises(ValueError):
        lapack.geev(*_nonzeros(np.array([[2.0, np.inf], [0.0, 3.0]])))


def _balanced(operator):
    """geev's arguments for a sector as eigendecompose builds them: n and
    the balanced nonzeros."""
    from nhladder.eig import _balance, _entries

    rows, cols, values = _entries(operator)
    _, balanced = _balance(operator.dimension, rows, cols, values)
    return operator.dimension, rows, cols, balanced


EIGENVALUE_INPUTS = {
    "random n=40": lambda: _nonzeros(np.random.default_rng(8)
                                     .normal(size=(40, 40))),
    "boson L=8 N=2": lambda: _balanced(SOLVE_INPUTS["boson L=8 N=2"]()),
    "boson L=6 N=3": lambda: _balanced(SOLVE_INPUTS["boson L=6 N=3"]()),
    "real spectrum L=6 N=1": lambda: _balanced(
        SOLVE_INPUTS["real spectrum L=6 N=1"]()),
    "n=0": lambda: _nonzeros(np.zeros((0, 0))),
    "n=2 complex pair": lambda: _nonzeros(np.array([[0.0, 1.0],
                                                    [-1.0, 0.0]])),
}


@pytest.mark.parametrize("unbound", [False, True], ids=["bound", "unbound"])
@pytest.mark.parametrize("name", list(EIGENVALUE_INPUTS))
def test_eigenvalue_only_geev_matches_numpy_eigvals(name, unbound,
                                                    monkeypatch):
    if unbound:
        monkeypatch.setattr(lapack, "_bind", lambda: None)
    elif lapack.symbol() is None:
        pytest.skip("numpy's OpenBLAS dgeev is not bound here")
    n, rows, cols, values = EIGENVALUE_INPUTS[name]()
    a = np.zeros((n, n))
    a[rows, cols] = values
    eigenvalues, vectors = lapack.geev(n, rows, cols, values, vectors=False)
    expected = np.linalg.eigvals(a)
    assert vectors is None
    assert eigenvalues.dtype == expected.dtype
    assert np.array_equal(eigenvalues, expected)  # bit-identical


INVERSE_ITERATION_INPUTS = {
    "boson L=8 N=2": lambda: _balanced(SOLVE_INPUTS["boson L=8 N=2"]()),
    "real spectrum L=6 N=1": lambda: _balanced(
        SOLVE_INPUTS["real spectrum L=6 N=1"]()),
    # every entry nonzero: the band is the whole matrix, kl = ku = n - 1
    "random n=40": lambda: _nonzeros(np.random.default_rng(8)
                                     .normal(size=(40, 40))),
    # no rung nonzeros: the pattern falls apart into one part per split of
    # the particles between the legs
    "boson L=8 N=2 jp=0": lambda: _balanced(_sector(8, 2, jp=0.0, mu=0.2,
                                                    u=4.0)),
}


@pytest.mark.parametrize("unbound", [False, True], ids=["bound", "unbound"])
def test_inverse_iteration_finds_the_eigenvector(unbound, monkeypatch):
    if unbound:
        monkeypatch.setattr(lapack, "_bind", lambda: None)
    # the identity order factors each input in its own numbering. The band
    # path (bound) and np.linalg.solve (unbound) factor differently, so
    # their vectors differ in the last bits and, for a shift this close to
    # an eigenvalue, in their phase: both must meet the residual bound
    for name, make in INVERSE_ITERATION_INPUTS.items():
        n, rows, cols, values = make()
        a = np.zeros((n, n))
        a[rows, cols] = values
        w = np.linalg.eigvals(a)
        shift = w[np.argmax(np.abs(w.imag))] if np.iscomplexobj(w) else w[0]
        x = lapack.inverse_iteration(n, rows, cols, values, shift,
                                     np.arange(n))
        assert x.dtype == (np.complex128 if np.iscomplexobj(w) else np.float64)
        assert np.abs(x).max() == pytest.approx(1.0, rel=1e-15)
        norm = np.abs(a).sum(axis=1).max()
        assert np.linalg.norm(a @ x - shift * x) <= 1e-12 * norm, name
    # exact eigenvalues of exact matrices leave an exactly zero pivot, which
    # raises: the caller solves in full instead
    for a, shift in ((np.array([[0.0, 1.0], [-1.0, 0.0]]), 1j),
                     (np.eye(3), 1.0), (np.zeros((3, 3)), 0.0),
                     (np.array([[2.5]]), 2.5)):
        with pytest.raises(np.linalg.LinAlgError):
            lapack.inverse_iteration(*_nonzeros(a), shift, np.arange(len(a)))


@bound
@pytest.mark.parametrize("make", [
    lambda: SOLVE_INPUTS["boson L=6 N=3"](),
    lambda: _sector(200, 1, jl_a=1.0, jr_a=1.0, jl_b=1.0, jr_b=1.0, jp=0.1)],
    ids=["complex D=364", "real D=400"])
def test_eigenvalue_only_solve_peaks_no_higher_than_a_full_solve(make):
    # geev's buffer of n^2 floats is freed before inverse iteration factors
    # in one of its own: the band of 2 kl + ku + 1 rows of n complex for a
    # complex deciding eigenvalue, floats for a real one; a full solve
    # holds 2n^2 floats
    from nhladder.eig import _entries

    operator = make()
    n = operator.dimension
    eigendecompose(operator, reads=read_every)
    peaks = {}
    for name, reads in (("full", None), ("fast", read_every)):
        tracemalloc.start()
        try:
            result = eigendecompose(operator, reads=reads)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert n >= 364 and result.eigenvectors is None
    assert peaks["fast"] <= peaks["full"]
    if not np.iscomplexobj(result.eigenvalues):
        assert peaks["fast"] < 1.5 * 8 * n ** 2
        return
    rows, cols, _ = _entries(operator)
    position = np.empty(n, np.int64)
    position[operator.band_order] = np.arange(n)
    kl = np.max(position[rows] - position[cols])
    ku = np.max(position[cols] - position[rows])
    # the nonzeros and their temporaries: O(n) in a sparse sector
    per_state = 1024
    assert peaks["fast"] <= 8 * n ** 2 + 16 * (2 * kl + ku + 1) * n + per_state * n
    # a dense complex LU would hold 16 n^2 bytes
    assert peaks["fast"] < 16 * n ** 2


@bound
def test_dense_eigenvalue_only_request_peaks_no_higher_than_a_full_solve():
    # a dense copy carries no band order, so its eigenvalue-only request is
    # the full solve, not a band of kl = 596 factored in its own numbering
    # (24 MB against 13 MB at D=816). Both requests then run the same code,
    # whose traced peak moves by up to about 2 KB from call to call, as
    # Python's free lists happen to hold objects or not
    dense = _sector(8, 3, jp=0.5, mu=16 / 3, u=16.0).to_dense()
    eigendecompose(dense, reads=read_every)
    peaks = {}
    for name, reads in (("full", None), ("fast", read_every)):
        tracemalloc.start()
        try:
            eigendecompose(dense, reads=reads)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(dense) == 816
    assert peaks["fast"] <= peaks["full"] + 16 * 1024
