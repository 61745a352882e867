import numpy as np
import pytest

from nhladder import lapack
from nhladder.eig import eigendecompose
from nhladder.model import ModelParams, build_hamiltonian, sector_basis

bound = pytest.mark.skipif(lapack.symbol() is None,
                           reason="numpy's OpenBLAS dgeev is not bound here")


def _sector(cells, particles, **kwargs):
    p = ModelParams(cells=cells, particles=particles, **kwargs)
    return build_hamiltonian(p, sector_basis(p))


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


@bound
def test_geev_returns_what_numpy_eig_returns():
    a = np.random.default_rng(8).normal(size=(40, 40))
    values, vectors = lapack.geev(np.asfortranarray(a))
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
        head = lapack.matrix(n)
        head[:] = a
        values, vectors = lapack.geev(head, head.base)
        expected_values, expected_vectors = np.linalg.eig(a)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)
        assert vectors.flags.f_contiguous
        assert np.shares_memory(vectors, head.base)
        # a conjugate pair split by the end of a block
        straddled |= any(values.imag[j - 1] > 0.0
                         for j in range(lapack.BLOCK, n, lapack.BLOCK))
    assert straddled


@bound
def test_geev_overwrites_fortran_input_only():
    a = np.random.default_rng(9).normal(size=(6, 6))
    kept = a.copy()
    lapack.geev(a)  # C-ordered: copied, not touched
    assert np.array_equal(a, kept)
    owned = np.asfortranarray(a)
    lapack.geev(owned)
    assert not np.array_equal(owned, kept)


@bound
def test_geev_leaves_the_memory_after_a_view_alone():
    n = 6
    a = np.random.default_rng(11).normal(size=(n, n))
    pairs = np.zeros(2 * n * n).reshape((n, n, 2), order="F")
    pairs[:, :, 0], pairs[:, :, 1] = a, 7.0
    flat = np.full(2 * n * n, 7.0)
    head = flat[:n * n].reshape((n, n), order="F")
    head[:] = a
    for view, rest in ((pairs[:, :, 0], pairs[:, :, 1]), (head, flat[n * n:])):
        values, vectors = lapack.geev(view)
        assert np.all(rest == 7.0)
        assert np.array_equal(values, np.linalg.eig(a)[0])
        assert not np.shares_memory(vectors, rest)
    with pytest.raises(ValueError):
        lapack.geev(lapack.matrix(n), np.zeros(2 * n * n))


def test_complex_input_takes_numpy_eig(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def spy(a):
        calls.append(a.dtype)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    result = eigendecompose(m)
    assert calls == [np.complex128]
    values, vectors = eig(m)
    assert np.allclose(np.sort_complex(result.eigenvalues), np.sort_complex(values))


@bound
def test_geev_rejects_non_finite_input():
    with pytest.raises(np.linalg.LinAlgError):
        lapack.geev(np.array([[1.0, np.nan], [0.0, 1.0]], order="F"))


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
    with lapack.threads(1):
        pass
    values, _ = lapack.geev(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert sorted(values) == [2.0, 3.0]
