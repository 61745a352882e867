import math

import numpy as np
import pytest

from nhladder.eig import eigendecompose
from nhladder.model import ModelParams
from nhladder.perturb import (ResonanceError, build_effective_pair_hamiltonian,
                              validate_effective_model)

from oracles import multisets_close

SQRT2 = math.sqrt(2.0)


def test_coefficients_frozen_at_u4():
    p = ModelParams(cells=3, particles=2, jp=0.01, u=4.0)
    h = build_effective_pair_hamiltonian(p).to_dense()
    # rung coupling 2 sqrt(2) jp^2 / u at mu = 0
    assert h[0, 3] == pytest.approx(7.071067811865475e-05, rel=1e-12)
    assert h[0, 3] == h[3, 0]
    # intra-leg pair hops sqrt(2) jl^2 / u and sqrt(2) jr^2 / u
    assert h[0, 1] == pytest.approx(0.3535533905932738, rel=1e-12)
    assert h[1, 0] == pytest.approx(0.08838834764831845, rel=1e-12)
    # leg B mirrors the asymmetry
    assert h[3, 4] == pytest.approx(0.08838834764831845, rel=1e-12)
    assert h[4, 3] == pytest.approx(0.3535533905932738, rel=1e-12)
    # diagonal u + sqrt(2) jp^2 / u + 2 sqrt(2) jl jr / u
    assert h[0, 0] == pytest.approx(4.353588745932333, rel=1e-12)


def test_pair_nonreciprocity_is_squared():
    p = ModelParams(cells=4, particles=2, u=7.0)
    h = build_effective_pair_hamiltonian(p).to_dense()
    # bare ratio jl/jr = 2 becomes 4 for the pair
    assert h[0, 1] / h[1, 0] == pytest.approx(4.0, rel=1e-12)


def test_detuned_denominators():
    p = ModelParams(cells=2, particles=2, jp=0.01, mu=0.5, u=4.0)
    h = build_effective_pair_hamiltonian(p).to_dense()
    # rung: sqrt(2) jp^2 (1/(u+2mu) + 1/(u-2mu))
    assert h[0, 2] == pytest.approx(7.542472332656507e-05, rel=1e-12)
    # leg A diagonal uses u + 2mu, leg B uses u - 2mu
    diag_a = 5.0 + SQRT2 * 1e-4 / 5.0 + 2.0 * SQRT2 * 0.5 / 4.0
    diag_b = 3.0 + SQRT2 * 1e-4 / 3.0 + 2.0 * SQRT2 * 0.5 / 4.0
    assert h[0, 0] == pytest.approx(diag_a, rel=1e-12)
    assert h[2, 2] == pytest.approx(diag_b, rel=1e-12)


def test_asymmetric_legs_at_negative_u():
    # leg B's own amplitudes (jl_b, jr_b not the mirror of leg A) and an
    # attractive u, against the docstring formulas entry by entry
    cells, u, jp, mu = 3, -6.0, 0.3, 0.4
    jl_a, jr_a, jl_b, jr_b = 1.1, 0.35, 0.6, 0.9
    p = ModelParams(cells=cells, particles=2, jl_a=jl_a, jr_a=jr_a,
                    jl_b=jl_b, jr_b=jr_b, jp=jp, mu=mu, u=u)
    h = build_effective_pair_hamiltonian(p).to_dense()
    rung = SQRT2 * jp ** 2 * (1.0 / (u + 2.0 * mu) + 1.0 / (u - 2.0 * mu))
    diag_a = (u + 2.0 * mu + SQRT2 * jp ** 2 / (u + 2.0 * mu)
              + 2.0 * SQRT2 * jl_a * jr_a / u)
    diag_b = (u - 2.0 * mu + SQRT2 * jp ** 2 / (u - 2.0 * mu)
              + 2.0 * SQRT2 * jl_b * jr_b / u)
    expected = np.zeros((2 * cells, 2 * cells))
    for x in range(cells):
        expected[x, x] = diag_a
        expected[cells + x, cells + x] = diag_b
        expected[x, cells + x] = expected[cells + x, x] = rung
    for x in range(cells - 1):
        expected[x, x + 1] = SQRT2 * jl_a ** 2 / u
        expected[x + 1, x] = SQRT2 * jr_a ** 2 / u
        expected[cells + x, cells + x + 1] = SQRT2 * jl_b ** 2 / u
        expected[cells + x + 1, cells + x] = SQRT2 * jr_b ** 2 / u
    np.testing.assert_allclose(h, expected, rtol=1e-14, atol=0.0)


def test_first_order_term_vanishes():
    # scaling all hop amplitudes by c scales every off-diagonal (and every
    # diagonal shift) by exactly c^2: no linear piece exists
    base = ModelParams(cells=3, particles=2, jp=0.02, u=5.0)
    h1 = build_effective_pair_hamiltonian(base).to_dense()
    for c in (2.0, 3.0):
        scaled = ModelParams(cells=3, particles=2, jp=c * 0.02, u=5.0,
                             jl_a=c * 1.0, jr_a=c * 0.5,
                             jl_b=c * 0.5, jr_b=c * 1.0)
        h2 = build_effective_pair_hamiltonian(scaled).to_dense()
        d = np.diag(np.full(6, 5.0))
        assert np.allclose(h2 - d, c * c * (h1 - d), rtol=1e-12, atol=1e-15)


def test_resonance_and_domain_errors():
    with pytest.raises(ResonanceError):
        build_effective_pair_hamiltonian(
            ModelParams(cells=2, particles=2, mu=2.0, u=4.0))
    with pytest.raises(ResonanceError):
        build_effective_pair_hamiltonian(
            ModelParams(cells=2, particles=2, mu=-2.0, u=4.0))
    with pytest.raises(ResonanceError):
        build_effective_pair_hamiltonian(
            ModelParams(cells=2, particles=2, mu=0.0, u=0.0))
    with pytest.raises(ValueError):
        build_effective_pair_hamiltonian(
            ModelParams(cells=2, particles=2, statistics="fermion", u_nn=4.0))


def test_uncoupled_legs_give_analytic_pair_band():
    # jp = 0, mu = 0: each leg is an open asymmetric pair chain with
    # eigenvalues diag + 2 sqrt(tL tR) cos(k pi / (L+1))
    cells, u = 6, 4.0
    p = ModelParams(cells=cells, particles=2, u=u)
    result = eigendecompose(build_effective_pair_hamiltonian(p))
    diag = u + 2.0 * SQRT2 * 0.5 / u
    t_geo = SQRT2 * 0.5 / u
    k = np.arange(1, cells + 1)
    band = diag + 2.0 * t_geo * np.cos(k * np.pi / (cells + 1))
    expected = np.concatenate([band, band])  # one copy per leg
    assert multisets_close(result.eigenvalues, expected, 1e-10)
    assert np.max(np.abs(result.eigenvalues.imag)) <= 1e-12


def test_validate_effective_model_converges_with_u():
    devs = []
    for u in (8.0, 16.0, 32.0):
        p = ModelParams(cells=4, particles=2, jp=0.01, u=u)
        report = validate_effective_model(p)
        devs.append(report.max_dev)
        assert len(report.full_eigenvalues) == 8
        assert len(report.effective_eigenvalues) == 8
        # both spectra come in eigendecompose's (re, im) order
        for values in (report.full_eigenvalues, report.effective_eigenvalues):
            assert np.array_equal(np.lexsort((values.imag, values.real)),
                                  np.arange(len(values)))
        assert report.max_dev_abs >= 0.0
        assert report.ratio > 1.0
    assert devs[0] > devs[1] > devs[2]


def test_validate_effective_model_requires_isolable_band():
    # at u = 1 the pair band is buried inside the scattering band
    p = ModelParams(cells=4, particles=2, jp=0.01, u=1.0)
    with pytest.raises(RuntimeError):
        validate_effective_model(p)


def test_validate_effective_model_requires_two_bosons():
    with pytest.raises(ValueError):
        validate_effective_model(ModelParams(cells=4, particles=3, u=8.0))
    with pytest.raises(ValueError):
        validate_effective_model(
            ModelParams(cells=4, particles=2, statistics="fermion", u_nn=8.0))


def test_report_rung_coupling_field():
    p = ModelParams(cells=4, particles=2, jp=0.01, u=8.0)
    report = validate_effective_model(p)
    # 2 sqrt(2) jp^2 / u
    assert report.rung_coupling == pytest.approx(3.5355339059327375e-05,
                                                 rel=1e-12)
