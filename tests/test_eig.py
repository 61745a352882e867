import dataclasses
import functools
import operator as operator_module
import sys
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


def _sparse(operator):
    """A SparseOperator of the nonzeros of a dense array, as
    eigendecompose makes it at entry; a SparseOperator as it is."""
    if isinstance(operator, SparseOperator):
        return operator
    rows, cols = np.nonzero(operator)
    return SparseOperator(len(operator), rows, cols, operator[rows, cols])


def _balance_entries(operator):
    """_balance on the nonzeros of a dense array or a SparseOperator: the
    balanced matrix and d."""
    from nhladder.eig import _balance, _entries

    rows, cols, values = _entries(_sparse(operator))
    dim = len(_dense(operator))
    d, balanced = _balance(dim, rows, cols, values)
    out = np.zeros((dim, dim))
    out[rows, cols] = balanced
    return out, d


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


def test_residual_verification_can_fail(monkeypatch):
    from nhladder import eig

    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 40))
    monkeypatch.setattr(eig, "RESIDUAL_RTOL", 1e-18)
    with pytest.raises(ConvergenceError):
        eigendecompose(m)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_every_check_fires_on_dense_and_sparse_input(sparse, monkeypatch):
    from nhladder import eig, lapack

    m = np.random.default_rng(5).normal(size=(40, 40))
    rows, cols = np.nonzero(m)
    operator = SparseOperator(40, rows, cols, m[rows, cols]) if sparse else m
    with pytest.raises(CapacityError):
        eigendecompose(operator, capacity=39)
    monkeypatch.setattr(eig, "RESIDUAL_RTOL", 1e-18)
    with pytest.raises(ConvergenceError, match="residual"):
        eigendecompose(operator)
    geev = lapack.geev

    def shifted(shift):
        def solve(*nonzeros, **kwargs):
            values, vectors = geev(*nonzeros, **kwargs)
            return values + shift, vectors
        return solve

    # shifts of 1e-3 pass the residual check at RESIDUAL_RTOL=1, with or
    # without eigenvectors
    monkeypatch.setattr(eig, "RESIDUAL_RTOL", 1.0)
    for vectors in (True, False):
        monkeypatch.setattr(lapack, "geev", shifted(1e-3))
        with pytest.raises(ConvergenceError, match="trace"):
            eigendecompose(operator, vectors=vectors)
        # one eigenvalue up and another down: the sum holds, conjugation
        # breaks
        tilt = np.zeros(40, complex)
        tilt[0], tilt[-1] = 1e-3j, -1e-3j
        monkeypatch.setattr(lapack, "geev", shifted(tilt))
        with pytest.raises(ConvergenceError, match="conjugation"):
            eigendecompose(operator, vectors=vectors)


@pytest.mark.parametrize("vectors", [True, False],
                         ids=["full", "eigenvalue-only"])
def test_wrong_deciding_eigenvalue_is_caught(vectors, monkeypatch):
    # the conjugate pair of largest |Im| moved to 1.01 times its |Im|: the
    # sum and the conjugation hold, so only the residual can catch it
    from nhladder import eig, lapack

    geev = lapack.geev

    def stretched(*nonzeros, **kwargs):
        values, vecs = geev(*nonzeros, **kwargs)
        top = np.abs(values.imag) == np.abs(values.imag).max()
        assert np.count_nonzero(top) == 2
        values = values.copy()
        values[top] += 0.01j * values[top].imag
        return values, vecs

    operator = _sector(8, 2, jp=0.01, mu=0.2, u=4.0)
    monkeypatch.setattr(lapack, "geev", stretched)
    with pytest.raises(ConvergenceError, match="residual"):
        eigendecompose(operator, vectors=vectors)
    with monkeypatch.context() as loose:
        loose.setattr(eig, "RESIDUAL_RTOL", 1.0)
        eigendecompose(operator, vectors=vectors)


def test_eigenvalue_only_solve_falls_back_to_the_full_solve(monkeypatch):
    # a deciding eigenvector that misses the residual bound, as inverse
    # iteration's can at an exceptional point, has the same operator solved
    # with every eigenvector, each residual checked
    from nhladder import lapack

    operator = _sector(8, 2, jp=0.01, mu=0.2, u=4.0)
    full = eigendecompose(operator)
    inverse_iteration = lapack.inverse_iteration

    def skewed(n, *args):
        return inverse_iteration(n, *args) + 1e-3 * np.arange(n)

    monkeypatch.setattr(lapack, "inverse_iteration", skewed)
    fast = eigendecompose(operator, vectors=False)
    assert fast.eigenvectors is not None
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(fast, name), getattr(full, name)), name


def test_deciding_index_tells_a_real_spectrum_by_value():
    from nhladder.eig import _deciding_index

    # every |Im| zero is a real spectrum whatever the dtype: its closest
    # pair (1, 1.001) decides, not the argmax of the zeros
    for dtype in (float, complex):
        assert _deciding_index(np.array([0, 1, 1.001, 3], dtype)) == 1
    assert _deciding_index(np.array([0, 1 - 2j, 1 + 2j, 3])) == 1
    assert _deciding_index(np.array([2.5 + 0j])) == 0
    assert _deciding_index(np.zeros(0, complex)) == 0


@pytest.mark.parametrize("part", ["real", "complex", "none"])
def test_eigenvalue_only_solve_verifies_what_the_caller_reads(part):
    # 132 real and two conjugate pairs: the eigenpair verified is the one
    # that decides max |Im| over the indices the caller reads, which come
    # in any order; reading none reads every eigenvalue
    operator = _sector(8, 2, jp=0.01, mu=0.2, u=4.0)
    every = eigendecompose(operator, vectors=False)
    w = every.eigenvalues
    top = np.argmax(np.abs(w.imag))
    real = np.flatnonzero(w.imag == 0)
    lower = np.flatnonzero((w.imag != 0) & (np.abs(w.imag) < abs(w[top].imag)))
    read, expected = {
        "real": (real, real[np.argmin(np.diff(w.real[real]))]),
        "complex": (lower, lower[np.argmax(np.abs(w.imag[lower]))]),
        "none": (np.zeros(0, int), top)}[part]
    seen = []

    def reads(result):
        seen.append(result)
        return read[::-1]

    fast = eigendecompose(operator, vectors=False, reads=reads)
    assert seen[0].eigenvectors is None
    assert np.array_equal(seen[0].eigenvalues, w)
    assert fast.eigenvectors is None and np.array_equal(fast.eigenvalues, w)
    checked = np.flatnonzero(~np.isnan(fast.residuals))
    assert checked.tolist() == [expected]
    assert expected != top or part == "none"
    assert fast.residuals[expected] <= 1e-9 * fast.matrix_norm


def test_eigenvalue_only_solve_keeps_the_diagnostic_keys():
    op = _sector(6, 2, jp=0.01, mu=0.2, u=4.0)
    assert list(eigendecompose(op, vectors=False).diagnostics) \
        == list(eigendecompose(op).diagnostics)


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
    with pytest.raises(ValueError):
        is_spectrum_real(eigendecompose(np.eye(2)), eps_im=-1.0)


def test_a_norm_the_residual_check_could_overflow_is_rejected():
    # the residuals of a D x D matrix sum D squares of up to (2 norm)^2:
    # above sqrt(max float / D) / 2 the norm is rejected before balancing
    operator = _sector(3, 2, jp=1.0, mu=0.2, u=4.0)
    dim = operator.dimension
    norm = eigendecompose(operator).matrix_norm
    limit = np.sqrt(np.finfo(float).max / dim) / 2
    below, above = (dataclasses.replace(
        operator, values=operator.values * (scale * limit / norm))
        for scale in (0.5, 2.0))
    for vectors in (True, False):
        assert eigendecompose(below, vectors=vectors).matrix_norm <= limit
        with pytest.raises(ValueError, match="matrix norm"):
            eigendecompose(above, vectors=vectors)
    # an infinite or NaN entry, as a product that overflows leaves it, and
    # infinities that cancel to NaN
    for bad in (np.inf, -np.inf, np.nan):
        values = operator.values.copy()
        values[0] = bad
        with pytest.raises(ValueError, match="matrix norm"):
            eigendecompose(dataclasses.replace(operator, values=values))
    cancelling = SparseOperator(2, np.array([0, 0, 1]), np.array([1, 1, 0]),
                                np.array([np.inf, -np.inf, 1.0]))
    with pytest.raises(ValueError, match="matrix norm nan"):
        eigendecompose(cancelling)


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
    "L=50 N=1 (D=100)": lambda: _sector(50, 1, jp=0.01, mu=0.2),
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


def test_bipartite_2x2_balances_in_two_sweeps():
    # a full step sqrt(row / col) swaps the two entries every sweep; the
    # half step meets in the middle
    from nhladder.eig import _balance

    diagnostics = {}
    _, balanced = _balance(2, np.array([0, 1]), np.array([1, 0]),
                           np.array([1.0, 0.5]), diagnostics)
    np.testing.assert_allclose(balanced, [np.sqrt(0.5)] * 2, rtol=1e-12)
    assert diagnostics["balance_sweeps"] <= 2


@pytest.mark.parametrize("cells, kwargs", [
    (15, dict(jp=0.01, mu=0.2, u=4.0)),
    (20, dict(jp=0.01, mu=4.0, u=16.0)),
], ids=["L=15 N=2 (D=465)", "L=20 N=2 (D=820)"])
def test_ladder_sectors_balance_before_the_cap(cells, kwargs):
    from nhladder.eig import _balance, _entries

    op = _sector(cells, 2, **kwargs)
    diagnostics = {}
    _balance(op.dimension, *_entries(op), diagnostics)
    assert diagnostics["balance_sweeps"] < diagnostics["balance_sweep_cap"]


def test_diagnostics_report_stages_and_balancing():
    op = _sector(6, 2, jp=0.01, mu=0.2, u=4.0)
    diagnostics = eigendecompose(op).diagnostics
    assert list(diagnostics) == ["densify_s", "balance_s", "geev_s",
                                 "verify_s", "balance_sweeps",
                                 "balance_sweep_cap", "balance_log10_spread"]
    assert all(diagnostics[k] >= 0.0
               for k in ("densify_s", "balance_s", "geev_s", "verify_s"))
    assert diagnostics["balance_sweep_cap"] == 1000
    # converged, not stopped by the cap
    assert 0 <= diagnostics["balance_sweeps"] < diagnostics["balance_sweep_cap"]
    _, d = _balance_entries(op.to_dense())
    assert diagnostics["balance_log10_spread"] == np.log10(d.max() / d.min())
    assert diagnostics["balance_log10_spread"] > 0.0
    # converged early: a diagonal matrix has nothing to balance
    trivial = eigendecompose(np.diag([1.0, 2.0, 3.0])).diagnostics
    assert trivial["balance_sweeps"] == 0
    assert trivial["balance_log10_spread"] == 0.0
    assert eigendecompose(np.zeros((0, 0))).diagnostics["balance_sweep_cap"] == 0


@pytest.mark.parametrize("make, dtype", [
    (lambda: _sector(30, 1, jl_a=1.0, jr_a=1.0, jl_b=1.0, jr_b=1.0, jp=0.1),
     np.float64),
    (lambda: _sector(8, 2, jp=0.01, mu=0.2, u=4.0), np.complex128)],
    ids=["real", "complex"])
def test_unit_eigenvectors_have_the_bits_of_numpy_norm(make, dtype,
                                                       monkeypatch):
    # the one eigenvector pass scales by d and normalises a block of
    # columns at a time, with the bits of np.linalg.norm on a C-ordered array
    from nhladder import eig, lapack

    seen = {}
    balance, geev = eig._balance, lapack.geev

    def capture_balance(*args, **kwargs):
        seen["d"], balanced = balance(*args, **kwargs)
        return seen["d"], balanced

    def capture_geev(*args):
        w, v = geev(*args)
        seen["w"], seen["v"] = w.copy(), v.copy()
        return w, v

    monkeypatch.setattr(eig, "_balance", capture_balance)
    monkeypatch.setattr(lapack, "geev", capture_geev)
    result = eigendecompose(make())
    order = np.lexsort((seen["w"].imag, seen["w"].real))
    v = np.ascontiguousarray(seen["v"][:, order] * seen["d"][:, np.newaxis])
    assert result.dimension > eig.GATHER
    assert result.eigenvectors.dtype == v.dtype == dtype
    assert np.array_equal(result.eigenvectors, v / np.linalg.norm(v, axis=0))


def test_solve_peaks_below_three_real_arrays():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic:
    # the buffer of two real n x n arrays plus O(n * GATHER) temporaries; a
    # real spectrum then keeps one real n x n array, a complex one two. A
    # trace function that holds the solver's frame (a line coverage tool)
    # stops numpy from shrinking the buffer, and the real result keeps two
    from nhladder import lapack

    if lapack.symbol() is None:
        pytest.skip("np.linalg.eig keeps its own buffers")
    eigendecompose(_sector(4, 2, jp=0.01, mu=0.2, u=4.0))
    reciprocal = dict(jl_a=1.0, jr_a=1.0, jl_b=1.0, jr_b=1.0, jp=0.1)
    for op, dtype, kept in ((_sector(20, 2, jp=0.01, mu=0.2, u=4.0),
                             np.complex128, 2.1),
                            (_sector(300, 1, **reciprocal), np.float64,
                             2.1 if sys.gettrace() else 1.1)):
        tracemalloc.start()
        try:
            result = eigendecompose(op)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.eigenvectors.dtype == dtype
        assert peak < 3 * 8 * op.dimension ** 2
        assert held < kept * 8 * op.dimension ** 2


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
    from nhladder.eig import _entries

    operator = RESIDUAL_INPUTS[name]()
    dense = _dense(operator)
    rows, cols, values = _entries(_sparse(operator))
    expected_rows, expected_cols = np.nonzero(dense)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(cols, expected_cols)
    assert np.array_equal(values, dense[rows, cols])
    # each row summed left to right; not with sum(), which compensates its
    # rounding from Python 3.12 on
    expected = max((functools.reduce(operator_module.add, map(abs, row), 0.0)
                    for row in dense.tolist()), default=0.0)
    assert eigendecompose(operator).matrix_norm == expected


def test_integer_and_boolean_duplicates_add():
    # duplicates add whatever the dtype: True + True is 2, as 3 + 4 is 7
    for values, expected in (([True, True, True], [1.0, 2.0]),
                             ([3, 4, 1], [1.0, 7.0])):
        operator = SparseOperator(2, np.array([0, 0, 1]), np.array([0, 0, 1]),
                                  np.array(values))
        assert eigendecompose(operator).eigenvalues.tolist() == expected


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


# the D=364 sector covers the larger dimensions; the L=20 ones add seconds
EIGENVALUE_ONLY_INPUTS = {name: make for name, make in RESIDUAL_INPUTS.items()
                          if "L=20" not in name}


# the deciding eigenvalue of these is exact in an exact matrix: the shifted
# matrix of inverse iteration has an exactly zero pivot
SINGULAR_SHIFT = ("n=1", "solve n=1", "solve n=2 complex pair")


@pytest.mark.parametrize("name", list(EIGENVALUE_ONLY_INPUTS))
def test_eigenvalue_only_solve_verifies_the_deciding_eigenpair(name):
    operator = _sparse(EIGENVALUE_ONLY_INPUTS[name]())
    if operator.band_order is None:
        # a hand-built operator gets the eigenvalue-only solve only with an
        # order: the identity factors it in its own numbering
        n = operator.dimension
        operator = dataclasses.replace(operator, band_order=np.arange(n))
    full = eigendecompose(operator)
    fast = eigendecompose(operator, vectors=False)
    if name in SINGULAR_SHIFT:
        # solved again with every eigenvector, as on a residual miss
        for attr in ("eigenvalues", "eigenvectors", "residuals"):
            a, b = getattr(fast, attr), getattr(full, attr)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), attr
        assert fast.matrix_norm == full.matrix_norm
        return
    w = fast.eigenvalues
    assert fast.eigenvectors is None
    assert w.dtype == full.eigenvalues.dtype and w.shape == (full.dimension,)
    assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(len(w)))
    assert fast.matrix_norm == full.matrix_norm
    np.testing.assert_allclose(w, full.eigenvalues, rtol=0.0,
                               atol=1e-11 * max(full.matrix_norm, 1.0))
    checked = np.flatnonzero(~np.isnan(fast.residuals))
    if not len(w):
        assert len(checked) == 0
        return
    # the largest |Im|, or in a real spectrum the lower of the closest pair
    if np.iscomplexobj(w):
        expected = np.argmax(np.abs(w.imag))
    else:
        expected = np.argmin(np.diff(w)) if len(w) > 1 else 0
    assert checked.tolist() == [expected]
    assert fast.residuals[expected] <= 1e-9 * max(fast.matrix_norm, 1e-300)


# dense copies and hand-built operators of model sectors, which carry no
# band order; the L=8 N=2 boson spectrum is complex, the one-particle real
ORDERLESS_INPUTS = {
    "dense complex": lambda: _sector(8, 2, jp=0.01, mu=0.2, u=4.0).to_dense(),
    "dense real": lambda: _sector(6, 1).to_dense(),
    "hand-built complex": lambda: dataclasses.replace(
        _sector(8, 2, jp=0.01, mu=0.2, u=4.0), band_order=None),
    "hand-built real": lambda: dataclasses.replace(_sector(6, 1),
                                                   band_order=None),
}


@pytest.mark.parametrize("name", list(ORDERLESS_INPUTS))
def test_eigenvalue_only_request_without_an_order_is_the_full_solve(
        name, monkeypatch):
    from nhladder import lapack

    operator = ORDERLESS_INPUTS[name]()
    full = eigendecompose(operator)
    assert np.iscomplexobj(full.eigenvalues) == ("complex" in name)

    def refuse(*args, **kwargs):
        raise AssertionError("inverse iteration without a band order")

    monkeypatch.setattr(lapack, "inverse_iteration", refuse)
    fast = eigendecompose(operator, vectors=False)
    for attr in ("eigenvalues", "eigenvectors", "residuals"):
        a, b = getattr(fast, attr), getattr(full, attr)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), attr
    assert fast.matrix_norm == full.matrix_norm
    assert list(fast.diagnostics) == list(full.diagnostics)
