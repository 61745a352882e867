import tracemalloc

import numpy as np
import pytest

from nhladder.eig import (ConvergenceError, default_eps_im, eigendecompose,
                          is_spectrum_real, max_imag)
from nhladder.fock import CapacityError
from nhladder.model import (ModelParams, SparseOperator, build_hamiltonian,
                            build_single_particle_matrix, sector_basis)

from oracles import (charpoly_eigenvalues, dense_balance, dense_residuals,
                     hn_open_chain_spectrum, multisets_close)
from test_lapack import SOLVE_INPUTS


def test_asymmetric_2x2_frozen():
    result = eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
    expected = [-0.7071067811865476, 0.7071067811865476]
    assert multisets_close(result.eigenvalues, expected, 1e-12)


def test_open_asymmetric_chain_three_sites():
    h = np.array([[0.0, -1.0, 0.0], [-0.5, 0.0, -1.0], [0.0, -0.5, 0.0]])
    result = eigendecompose(h)
    assert multisets_close(result.eigenvalues, [-1.0, 0.0, 1.0], 1e-10)


def test_identity_spectrum():
    result = eigendecompose(np.eye(5))
    assert np.allclose(result.eigenvalues, 1.0)
    assert np.all(result.residuals <= 1e-12)


def test_matches_charpoly_oracle_on_small_matrices():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(5):
            m = rng.normal(size=(dim, dim))
            result = eigendecompose(m)
            assert multisets_close(result.eigenvalues,
                                   charpoly_eigenvalues(m), 1e-6)


def test_matches_open_chain_formula():
    # lengths up to 50: without balancing the asymmetric chain loses
    # eigenvalue accuracy exponentially with length
    for length in (3, 10, 25, 50):
        h = np.zeros((length, length))
        for x in range(length - 1):
            h[x, x + 1] = -1.0
            h[x + 1, x] = -0.5
        result = eigendecompose(h)
        assert multisets_close(result.eigenvalues,
                               hn_open_chain_spectrum(length, 1.0, 0.5), 1e-10)


def _dense(operator):
    return operator.to_dense() if isinstance(operator, SparseOperator) \
        else operator


def _balance_entries(operator):
    """_balance on the nonzeros of a dense array or a SparseOperator: the
    balanced matrix and d."""
    from nhladder.eig import _balance, _entries

    rows, cols, values = _entries(operator)
    dim = len(_dense(operator))
    out = np.zeros((dim, dim), order="F")
    return out, _balance(rows, cols, values, out)


def test_balancing_is_a_similarity_transform():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12)) * np.exp(rng.normal(size=(12, 12)))
    balanced, diag = _balance_entries(a)
    # same spectrum, same diagonal, b = D^-1 a D exactly
    assert np.array_equal(np.diagonal(balanced), np.diagonal(a))
    np.testing.assert_allclose(balanced * diag[:, None] / diag[None, :], a,
                               rtol=1e-12, atol=1e-15)
    # greedy nearest matching: lexicographic pairing is unstable when
    # distinct eigenvalues share a real part to roundoff
    remaining = list(np.linalg.eigvals(balanced))
    for val in np.linalg.eigvals(a):
        hit = min(range(len(remaining)), key=lambda k: abs(remaining[k] - val))
        assert abs(remaining.pop(hit) - val) < 1e-8
    # row and column weights end up comparable
    off = np.abs(balanced) - np.diag(np.abs(np.diagonal(balanced)))
    ratio = off.sum(axis=1) / off.sum(axis=0)
    assert np.all((ratio > 0.2) & (ratio < 5.0))


def test_residuals_and_norm_on_model_matrix():
    p = ModelParams(cells=4, particles=2, jp=0.01, mu=0.2, u=4.0)
    op = build_hamiltonian(p, sector_basis(p))
    result = eigendecompose(op)
    assert result.dimension == 36
    dense = op.to_dense()
    assert result.matrix_norm == pytest.approx(
        np.max(np.sum(np.abs(dense), axis=1)))
    assert np.all(result.residuals <= 1e-9 * result.matrix_norm)
    # eigenvalue sum equals the trace
    assert abs(result.eigenvalues.sum() - np.trace(dense)) \
        <= 1e-8 * result.matrix_norm * result.dimension


def test_complex_spectrum_passes_conjugate_closure():
    p = ModelParams(cells=12, particles=1, jp=0.1)
    result = eigendecompose(build_single_particle_matrix(p))
    assert max_imag(result) > 1e-6  # coupled legs have turned complex
    assert not is_spectrum_real(result)


def test_residual_verification_can_fail():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 40))
    with pytest.raises(ConvergenceError):
        eigendecompose(m, tol=1e-18)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_every_check_fires_on_dense_and_sparse_input(sparse, monkeypatch):
    from nhladder import lapack

    m = np.random.default_rng(5).normal(size=(40, 40))
    rows, cols = np.nonzero(m)
    operator = SparseOperator(40, rows, cols, m[rows, cols]) if sparse else m
    with pytest.raises(CapacityError):
        eigendecompose(operator, capacity=39)
    with pytest.raises(ConvergenceError, match="residual"):
        eigendecompose(operator, tol=1e-18)
    geev = lapack.geev

    def shifted(shift):
        def solve(a):
            values, vectors = geev(a)
            return values + shift, vectors
        return solve

    # shifts of 1e-3 pass the residual check at tol=1
    monkeypatch.setattr(lapack, "geev", shifted(1e-3))
    with pytest.raises(ConvergenceError, match="trace"):
        eigendecompose(operator, tol=1.0)
    # one eigenvalue up and another down: the sum holds, conjugation breaks
    tilt = np.zeros(40, complex)
    tilt[0], tilt[-1] = 1e-3j, -1e-3j
    monkeypatch.setattr(lapack, "geev", shifted(tilt))
    with pytest.raises(ConvergenceError, match="conjugation"):
        eigendecompose(operator, tol=1.0)


def test_max_imag_and_is_spectrum_real():
    h = np.array([[1.0, 0.3, 0.0], [-0.3, 1.0, 0.0], [0.0, 0.0, 2.0]])
    result = eigendecompose(h)
    assert max_imag(result) == pytest.approx(0.3, abs=1e-12)
    assert not is_spectrum_real(result)
    assert is_spectrum_real(result, eps_im=0.31)
    real = eigendecompose(np.diag([1.0, 2.0, 3.0]))
    assert is_spectrum_real(real)
    assert max_imag(real) == 0.0


def test_default_eps_im_floor_and_scaling():
    assert default_eps_im(0.1) == 1e-9
    assert default_eps_im(1e4) == pytest.approx(1e-8)


def test_capacity_budget():
    with pytest.raises(CapacityError):
        eigendecompose(np.eye(5), capacity=4)
    p = ModelParams(cells=3, particles=2)
    op = build_hamiltonian(p, sector_basis(p))
    with pytest.raises(CapacityError):
        eigendecompose(op, capacity=10)


def test_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            eigendecompose(np.eye(2), tol=tol)
    with pytest.raises(ValueError):
        is_spectrum_real(eigendecompose(np.eye(2)), eps_im=-1.0)


def test_right_eigenvectors_are_unit_columns():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(12, 12))
    result = eigendecompose(m)
    assert np.allclose(np.linalg.norm(result.eigenvectors, axis=0), 1.0)


def _sector(cells, particles, **kwargs):
    p = ModelParams(cells=cells, particles=particles, **kwargs)
    return build_hamiltonian(p, sector_basis(p))


def _cancelling_duplicates():
    """A model operator with extra COO entries that cancel exactly: +v and
    -v on empty off-diagonal positions, +w and -w on stored ones."""
    op = _sector(4, 2, jp=0.01, mu=0.2, u=4.0)
    empty = [(0, op.dimension - 1), (op.dimension - 1, 0), (5, 30)]
    assert all(op.to_dense()[r, c] == 0.0 for r, c in empty)
    stored = [(r, c) for r, c in zip(op.rows, op.cols) if r != c][:2]
    extra = [(r, c, v) for r, c in empty for v in (0.75, -0.75)]
    extra += [(r, c, v) for r, c in stored for v in (0.5, -0.5)]
    r, c, v = map(np.array, zip(*extra))
    dup = SparseOperator(op.dimension, np.concatenate([op.rows, r]),
                         np.concatenate([op.cols, c]),
                         np.concatenate([op.values, v]))
    assert np.array_equal(dup.to_dense(), op.to_dense())
    return dup


def _zero_row_and_column():
    m = np.random.default_rng(4).normal(size=(20, 20))
    m[3, :] = 0.0
    m[:, 7] = 0.0
    m[3, 3] = 1.5  # a diagonal entry does not make the row active
    return m


BALANCE_INPUTS = {
    "boson L=4 N=2 (D=36)": lambda: _sector(4, 2, jp=0.01, mu=0.2, u=4.0),
    "boson L=8 N=2 (D=136)": lambda: _sector(8, 2, jp=0.01, mu=0.2, u=4.0),
    "boson L=6 N=3 (D=364)": lambda: _sector(6, 3, jp=0.5, mu=16 / 3, u=16.0),
    "boson L=20 N=2 (D=820)": lambda: _sector(20, 2, jp=0.01, mu=4.0, u=16.0),
    "fermion L=8 N=2 (D=120)": lambda: _sector(8, 2, statistics="fermion",
                                               jp=0.01, mu=0.2, u_nn=4.0),
    "fermion L=20 N=2 (D=780)": lambda: _sector(20, 2, statistics="fermion",
                                                jp=0.01, mu=0.2, u_nn=4.0),
    "L=50 N=1 (1000 sweeps)": lambda: _sector(50, 1, jp=0.01, mu=0.2),
    "zero row and column": _zero_row_and_column,
    "n=0": lambda: np.zeros((0, 0)),
    "n=1": lambda: np.array([[2.5]]),
    "n=2": lambda: np.array([[1.0, 2.0], [0.125, -1.0]]),
    "cancelling COO duplicates": _cancelling_duplicates,
}


@pytest.mark.parametrize("name", list(BALANCE_INPUTS))
def test_sparse_balancing_matches_dense_sweeps(name):
    operator = BALANCE_INPUTS[name]()
    balanced, d = _balance_entries(operator)
    matrix = _dense(operator)
    _, d_dense = dense_balance(matrix)
    # only the order of the row sums differs from the dense sweeps
    assert d.shape == d_dense.shape
    assert np.all(np.abs(np.log(d) - np.log(d_dense)) <= 1e-13)
    # one rescale of the original entries, and the exact diagonal
    expected = matrix * (d[np.newaxis, :] / d[:, np.newaxis])
    np.fill_diagonal(expected, matrix.diagonal())
    assert np.array_equal(balanced, expected)
    assert np.array_equal(np.diagonal(balanced), np.diagonal(matrix))


def test_diagnostics_report_stages_and_balancing():
    op = _sector(6, 2, jp=0.01, mu=0.2, u=4.0)
    diagnostics = eigendecompose(op).diagnostics
    assert list(diagnostics) == ["densify_s", "balance_s", "geev_s",
                                 "verify_s", "balance_sweeps",
                                 "balance_sweep_cap", "balance_log10_spread"]
    assert all(diagnostics[k] >= 0.0
               for k in ("densify_s", "balance_s", "geev_s", "verify_s"))
    dim = op.dimension
    assert diagnostics["balance_sweep_cap"] == min(1000, 12 + int(4e7) // dim**2)
    assert 0 <= diagnostics["balance_sweeps"] <= diagnostics["balance_sweep_cap"]
    _, d = _balance_entries(op.to_dense())
    assert diagnostics["balance_log10_spread"] == np.log10(d.max() / d.min())
    assert diagnostics["balance_log10_spread"] > 0.0
    # converged early: a diagonal matrix has nothing to balance
    trivial = eigendecompose(np.diag([1.0, 2.0, 3.0])).diagnostics
    assert trivial["balance_sweeps"] == 0
    assert trivial["balance_log10_spread"] == 0.0
    assert eigendecompose(np.zeros((0, 0))).diagnostics["balance_sweep_cap"] == 0


def test_column_norms_match_numpy_norm():
    # the blocked sum keeps np.linalg.norm's arithmetic, so the unit
    # eigenvectors keep their bits
    from nhladder.eig import _column_norms

    rng = np.random.default_rng(12)
    for shape in ((1, 1), (3, 5), (64, 64), (130, 130), (200, 70)):
        real = rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
        for m in (real, real + 1j * rng.normal(size=shape)):
            assert np.array_equal(_column_norms(m), np.linalg.norm(m, axis=0))


def test_solve_peaks_below_three_real_arrays():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic:
    # the buffer of two real n x n arrays plus O(n * BLOCK) temporaries
    from nhladder import lapack

    if lapack.symbol() is None:
        pytest.skip("np.linalg.eig keeps its own buffers")
    eigendecompose(_sector(4, 2, jp=0.01, mu=0.2, u=4.0))
    op = _sector(20, 2, jp=0.01, mu=0.2, u=4.0)
    tracemalloc.start()
    try:
        eigendecompose(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * op.dimension ** 2


def test_solve_never_densifies_a_sparse_operator(monkeypatch):
    operators = [_sector(8, 2, jp=0.01, mu=0.2, u=4.0),
                 _sector(8, 2, statistics="fermion", jp=0.01, mu=0.2, u_nn=4.0),
                 _cancelling_duplicates()]

    def refuse(self):
        raise AssertionError("the solve built a dense matrix")

    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    for op in operators:
        result = eigendecompose(op)
        assert result.dimension == op.dimension


RESIDUAL_INPUTS = {**BALANCE_INPUTS,
                   **{f"solve {name}": make for name, make in SOLVE_INPUTS.items()}}


@pytest.mark.parametrize("name", list(RESIDUAL_INPUTS))
def test_residuals_from_nonzeros_match_dense_residuals(name):
    operator = RESIDUAL_INPUTS[name]()
    result = eigendecompose(operator)
    dense = _dense(operator)
    full = dense_residuals(dense, result.eigenvalues, result.eigenvectors)
    assert result.residuals.shape == full.shape == (len(dense),)
    np.testing.assert_allclose(result.residuals, full, rtol=0.0,
                               atol=1e-13 * result.matrix_norm)


@pytest.mark.parametrize("name", [name for name, make in SOLVE_INPUTS.items()
                                  if isinstance(make(), SparseOperator)])
def test_dense_and_sparse_input_give_the_same_bits(name):
    operator = SOLVE_INPUTS[name]()
    sparse = eigendecompose(operator)
    dense = eigendecompose(operator.to_dense())
    for attr in ("eigenvalues", "eigenvectors", "residuals"):
        a, b = getattr(sparse, attr), getattr(dense, attr)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    assert sparse.matrix_norm == dense.matrix_norm


@pytest.mark.parametrize("name", list(RESIDUAL_INPUTS))
def test_norm_and_entries_keep_the_dense_bits(name):
    from nhladder.eig import _entries, _norm

    operator = RESIDUAL_INPUTS[name]()
    dense = _dense(operator)
    rows, cols, values = _entries(operator)
    expected_rows, expected_cols = np.nonzero(dense)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(cols, expected_cols)
    assert np.array_equal(values, dense[rows, cols])
    expected = float(np.max(np.sum(np.abs(dense), axis=1))) if len(dense) else 0.0
    assert _norm(len(dense), rows, cols, values) == expected


def test_permute_columns_matches_fancy_indexing():
    from nhladder.eig import _permute_columns

    rng = np.random.default_rng(13)
    for n in (0, 1, 2, 7, 50):
        for order in (np.arange(n), np.arange(n)[::-1].copy(),
                      rng.permutation(n)):
            a = np.asfortranarray(rng.normal(size=(5, n))
                                  + 1j * rng.normal(size=(5, n)))
            expected = a[:, order]
            _permute_columns(a, order)
            assert np.array_equal(a, expected)
