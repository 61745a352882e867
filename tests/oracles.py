"""Independent reference implementations used to pin expected values.

Everything here is built from a different code path than the package:
operator matrices assembled with numpy.kron on full product spaces,
characteristic-polynomial eigenvalues, closed-form band formulas,
balancing sweeps over the dense array, and residuals from the dense
product. The package is correct when it
agrees with these on desk-scale problems.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Jordan-Wigner operator matrices on the full 2^n qubit space.

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SM = np.array([[0.0, 1.0], [0.0, 0.0]])  # <0|c|1> = 1
_I2 = np.eye(2)


def jw_annihilation_ops(nsites: int) -> List[np.ndarray]:
    """c_k with a sigma_z string on sites j < k; site 0 is the first
    tensor factor (most significant bit)."""
    ops = []
    for k in range(nsites):
        m = np.ones((1, 1))
        for j in range(nsites):
            if j < k:
                m = np.kron(m, _SZ)
            elif j == k:
                m = np.kron(m, _SM)
            else:
                m = np.kron(m, _I2)
        ops.append(m)
    return ops


def fermion_qubit_vector(state: Sequence[int], create_ops: List[np.ndarray]) -> np.ndarray:
    """|state> = c_{s1}^dag c_{s2}^dag ... |vac> with s1 < s2 < ...,
    built by matrix products so all signs come from the JW matrices."""
    dim = create_ops[0].shape[0]
    vec = np.zeros(dim)
    vec[0] = 1.0
    occupied = [s for s, n in enumerate(state) if n]
    for s in reversed(occupied):
        vec = create_ops[s] @ vec
    return vec


def brute_fermion_hop(state: Sequence[int], from_site: int, to_site: int):
    """Matrix-element evaluation of c_to^dag c_from on one state; returns
    (new_state, amplitude) or None."""
    nsites = len(state)
    ann = jw_annihilation_ops(nsites)
    create = [m.T for m in ann]
    vec = fermion_qubit_vector(state, create)
    out = create[to_site] @ (ann[from_site] @ vec)
    hits = np.nonzero(np.abs(out) > 1e-12)[0]
    if len(hits) == 0:
        return None
    assert len(hits) == 1
    idx = int(hits[0])
    new_state = tuple((idx >> (nsites - 1 - j)) & 1 for j in range(nsites))
    ref = fermion_qubit_vector(new_state, create)
    amp = float(ref @ out)
    return new_state, amp


# ---------------------------------------------------------------------------
# Full product-space Hamiltonians projected onto a fixed-N sector.

def hop_terms(cells: int, jl_a: float, jr_a: float, jl_b: float, jr_b: float,
              jp: float) -> List[Tuple[int, int, float]]:
    """(i, j, coeff) triples meaning coeff * a_i^dag a_j, encoding the
    ladder convention: -jl moves x+1 -> x, -jr moves x -> x+1 on each leg,
    +jp both ways on every rung."""
    terms = []
    for off, jl, jr in ((0, jl_a, jr_a), (cells, jl_b, jr_b)):
        for x in range(cells - 1):
            a, b = off + x, off + x + 1
            terms.append((a, b, -jl))
            terms.append((b, a, -jr))
    for x in range(cells):
        terms.append((x, cells + x, jp))
        terms.append((cells + x, x, jp))
    return terms


def _site_operator(op: np.ndarray, site: int, nsites: int) -> np.ndarray:
    d = op.shape[0]
    m = np.ones((1, 1))
    for j in range(nsites):
        m = np.kron(m, op if j == site else np.eye(d))
    return m


def brute_boson_hamiltonian(cells: int, particles: int, jl_a: float,
                            jr_a: float, jl_b: float, jr_b: float, jp: float,
                            mu: float, u: float,
                            states: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense sector Hamiltonian from kron-built boson operators with
    per-site cutoff n <= particles."""
    nsites = 2 * cells
    d = particles + 1
    ann = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    num = np.diag(np.arange(0.0, d))
    full = np.zeros((d ** nsites, d ** nsites))
    for i, j, coeff in hop_terms(cells, jl_a, jr_a, jl_b, jr_b, jp):
        full += coeff * _site_operator(ann.T, i, nsites) @ _site_operator(ann, j, nsites)
    for s in range(nsites):
        n_op = _site_operator(num, s, nsites)
        full += 0.5 * u * (n_op @ n_op - n_op)
        full += mu * (n_op if s < cells else -n_op)

    def index(state):
        idx = 0
        for n in state:
            idx = idx * d + int(n)
        return idx

    sel = [index(s) for s in states]
    return full[np.ix_(sel, sel)]


def brute_fermion_hamiltonian(cells: int, jl_a: float, jr_a: float,
                              jl_b: float, jr_b: float, jp: float, mu: float,
                              u_nn: float,
                              states: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense sector Hamiltonian from JW matrices on the 2^(2L) qubit space."""
    nsites = 2 * cells
    ann = jw_annihilation_ops(nsites)
    create = [m.T for m in ann]
    full = np.zeros((2 ** nsites, 2 ** nsites))
    for i, j, coeff in hop_terms(cells, jl_a, jr_a, jl_b, jr_b, jp):
        full += coeff * create[i] @ ann[j]
    nums = [create[s] @ ann[s] for s in range(nsites)]
    for s in range(nsites):
        full += mu * (nums[s] if s < cells else -nums[s])
    for off in (0, cells):
        for x in range(cells - 1):
            full += u_nn * nums[off + x] @ nums[off + x + 1]
    basis_vectors = [fermion_qubit_vector(s, create) for s in states]
    v = np.stack(basis_vectors, axis=1)
    return v.T @ full @ v


def per_state_hamiltonian(params) -> np.ndarray:
    """Dense sector Hamiltonian assembled one basis state at a time, the way
    the package did before its batched kernels: its own enumeration
    (occupation tuples in descending lexicographic order), a dict rank, its
    own sqrt amplitudes and Jordan-Wigner string, and the same floating-point
    operations per entry, so the package must match it bit for bit."""
    cells, particles = params.cells, params.particles
    nsites = 2 * cells
    fermion = params.statistics == "fermion"
    combos = (itertools.combinations(range(nsites), particles) if fermion else
              itertools.combinations_with_replacement(range(nsites), particles))
    states = []
    for positions in combos:
        occ = [0] * nsites
        for p in positions:
            occ[p] += 1
        states.append(tuple(occ))
    index = {s: i for i, s in enumerate(states)}
    terms = hop_terms(cells, params.jl_a, params.jr_a, params.jl_b,
                      params.jr_b, params.jp)
    h = np.zeros((len(states), len(states)))
    for col, state in enumerate(states):
        energy = params.mu * (sum(state[:cells]) - sum(state[cells:]))
        if fermion:
            energy += params.u_nn * sum(state[off + x] * state[off + x + 1]
                                        for off in (0, cells)
                                        for x in range(cells - 1))
        else:
            energy += 0.5 * params.u * sum(n * (n - 1) for n in state)
        if energy != 0.0:
            h[col, col] += energy
        for to_site, from_site, coeff in terms:
            if coeff == 0.0 or state[from_site] == 0:
                continue
            if fermion:
                if state[to_site] == 1:
                    continue
                lo, hi = sorted((from_site, to_site))
                amp = -1.0 if sum(state[lo + 1:hi]) % 2 else 1.0
            else:
                amp = math.sqrt(state[from_site]) * math.sqrt(state[to_site] + 1)
            new = list(state)
            new[from_site] -= 1
            new[to_site] += 1
            h[index[tuple(new)], col] += coeff * amp
    return h


def per_term_entries(params, basis) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Rows, columns and values of the sector Hamiltonian as the package
    assembled them one call at a time, before it kept a plan per sector:
    the nonzero diagonal, then one fock.hop_all pass per hop term with a
    nonzero coefficient, in the order -jl_s leftward and -jr_s rightward on
    each bond of leg A and then of leg B, and +jp out of leg A and into it
    on each rung, its amplitudes times the coefficient. A plan's operator
    must match it entry for entry and bit for bit."""
    from nhladder.fock import hop_all
    from nhladder.model import diagonal_counts

    cells, occ = params.cells, basis.occupations
    quanta, imbalance = diagonal_counts(occ, params.statistics)
    diag = params.mu * imbalance + params.pair_energy * quanta
    terms = []
    for off, jl, jr in ((0, params.jl_a, params.jr_a),
                        (cells, params.jl_b, params.jr_b)):
        for a in range(off, off + cells - 1):
            terms += [(a + 1, a, -jl), (a, a + 1, -jr)]
    for x in range(cells):
        terms += [(x, cells + x, params.jp), (cells + x, x, params.jp)]
    on = np.flatnonzero(diag)
    rows, cols, vals = [on], [on], [diag[on]]
    for from_site, to_site, coeff in terms:
        if coeff == 0.0:
            continue
        kept, new, amplitudes = hop_all(occ, from_site, to_site,
                                        params.statistics)
        rows.append(basis.rank_all(new))
        cols.append(kept)
        vals.append(coeff * amplitudes)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def brute_fermion_entropy(vector: Sequence[complex],
                          states: Sequence[Sequence[int]],
                          subset: Sequence[int]) -> float:
    """Fermionic mode entanglement entropy via matrix-product amplitudes
    <0| (comp annihilations) (subset annihilations) |psi>."""
    nsites = len(states[0])
    ann = jw_annihilation_ops(nsites)
    create = [m.T for m in ann]
    subset = sorted(subset)
    complement = [s for s in range(nsites) if s not in subset]
    psi = np.zeros(2 ** nsites, dtype=complex)
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    for amp, state in zip(v, states):
        psi = psi + amp * fermion_qubit_vector(state, create)

    rows: dict = {}
    cols: dict = {}
    entries = {}
    for state in states:
        sub_occ = tuple(state[s] for s in subset)
        comp_occ = tuple(state[c] for c in complement)
        r = rows.setdefault(sub_occ, len(rows))
        c = cols.setdefault(comp_occ, len(cols))
        if (r, c) in entries:
            continue
        # Coefficient of (subset creations asc)(complement creations asc)|0>
        # equals <0| c_cK ... c_c1 c_sM ... c_s1 |psi>: annihilate subset
        # sites ascending first, then complement sites ascending.
        vec = psi
        for q, n in zip(subset, sub_occ):
            if n:
                vec = ann[q] @ vec
        for q, n in zip(complement, comp_occ):
            if n:
                vec = ann[q] @ vec
        entries[(r, c)] = vec[0]
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for (r, c), amp in entries.items():
        matrix[r, c] = amp
    probs = np.linalg.svd(matrix, compute_uv=False) ** 2
    probs = probs[probs > 1e-14]
    return float(-np.sum(probs * np.log(probs)))


# ---------------------------------------------------------------------------
# Pair participation from the full two-point matrix.

def einsum_ncor(vectors: np.ndarray,
                states: Sequence[Sequence[int]]) -> np.ndarray:
    """(tr G)^2 - ||G||_F^2 per column, with G = rho - diag(density) built
    from the dense pair density rho_bxy = sum_i w_ib n_ix n_iy."""
    occ = np.asarray(states, dtype=float)
    w = np.abs(np.asarray(vectors)) ** 2
    w = w / w.sum(axis=0)
    rho = np.einsum("ib,ix,iy->bxy", w, occ, occ)
    g = rho - (w.T @ occ)[:, :, None] * np.eye(occ.shape[1])
    return np.trace(g, axis1=1, axis2=2) ** 2 - np.sum(g * g, axis=(1, 2))


# ---------------------------------------------------------------------------
# Eigenvalue oracles.

def dense_balance(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balancing with every sweep over the dense array, the form the
    package's sparse sweeps replace: same half-step sweep rule, clips, cap
    and stop test, with row and column sums taken over all n^2 entries."""
    n = matrix.shape[0]
    if n < 2:
        return matrix, np.ones(n)
    work = np.abs(matrix).astype(float)
    np.fill_diagonal(work, 0.0)
    d = np.ones(n)
    for _ in range(1000):
        col = work.sum(axis=0)
        row = work.sum(axis=1)
        active = (col > 0.0) & (row > 0.0)
        factor = np.ones(n)
        factor[active] = np.sqrt(np.sqrt(row[active] / col[active]))
        np.clip(factor, 0.25, 4.0, out=factor)
        np.clip(factor, 1e-12 / d, 1e12 / d, out=factor)
        if np.max(np.abs(np.log(factor))) < 1e-3:
            break
        d *= factor
        work *= factor[np.newaxis, :]
        work /= factor[:, np.newaxis]
    # one rescale of the original entries keeps rounding to a single step
    balanced = matrix * (d[np.newaxis, :] / d[:, np.newaxis])
    np.fill_diagonal(balanced, matrix.diagonal())
    return balanced, d


def dense_residuals(matrix: np.ndarray, eigenvalues: np.ndarray,
                    eigenvectors: np.ndarray) -> np.ndarray:
    """Column norms of H X - X diag(w) from the dense product, the form the
    package's residuals from the nonzeros replace."""
    return np.linalg.norm(matrix @ eigenvectors - eigenvectors * eigenvalues,
                          axis=0)


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial via the Faddeev-LeVerrier
    recursion; independent of any eigensolver."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    c = 1.0
    for k in range(1, n + 1):
        mk = m @ mk + c * np.eye(n)
        c = -np.trace(m @ mk) / k
        coeffs[k] = c
    return np.roots(coeffs)


def hn_open_chain_spectrum(length: int, jl: float, jr: float) -> np.ndarray:
    """Open-boundary asymmetric chain with forward amplitude -jl and
    backward -jr: eigenvalues -2 sqrt(jl jr) cos(k pi / (length+1))."""
    k = np.arange(1, length + 1)
    return -2.0 * math.sqrt(jl * jr) * np.cos(k * math.pi / (length + 1))


def sorted_complex(values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return values[order]


def multisets_close(a, b, tol: float) -> bool:
    a = sorted_complex(a)
    b = sorted_complex(b)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol))
