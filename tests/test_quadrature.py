"""Globally adaptive Gauss-Kronrod integration."""

import math

import numpy as np
import pytest

from casimir_plates.quadrature import (
    QuadratureError,
    adaptive_pair_quadrature,
    batched_pair_quadrature,
    kronrod_pair_panels,
)
from quadrature_oracle import _kronrod_panel, adaptive_pair_quadrature as oracle_quadrature


def _scalar_integral(f, breaks, tol=1e-10):
    """Integral of a scalar f by the pair engine, with a zero second component."""
    u, _ = adaptive_pair_quadrature(lambda x: (f(x), 0.0), breaks, tol)
    return u


def test_constant_is_exact():
    assert _scalar_integral(lambda x: 1.0, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("k", [0, 3, 7, 13, 22])
def test_polynomials_integrate_exactly(k):
    value = _scalar_integral(lambda x: x**k, [0.0, 1.0], tol=1e-12)
    assert value == pytest.approx(1.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize(
    "f,breaks,expected",
    [
        (math.sin, [0.0, math.pi], 2.0),
        (math.exp, [0.0, 1.0], math.e - 1.0),
        (lambda x: 4.0 / (1.0 + x * x), [0.0, 1.0], math.pi),
        (lambda x: math.sqrt(x), [0.0, 1.0], 2.0 / 3.0),
    ],
)
def test_known_integrals(f, breaks, expected):
    assert _scalar_integral(f, breaks, tol=1e-11) == pytest.approx(expected, rel=1e-9)


def test_extra_breaks_do_not_change_the_value():
    one = _scalar_integral(math.sin, [0.0, math.pi], tol=1e-12)
    split = _scalar_integral(math.sin, [0.0, 0.3, 1.1, math.pi], tol=1e-12)
    assert split == pytest.approx(one, rel=1e-12)


def test_pair_components_share_the_grid():
    u, v = adaptive_pair_quadrature(
        lambda x: (math.sin(x), math.cos(x)), [0.0, math.pi / 2.0], tol=1e-12
    )
    assert u == pytest.approx(1.0, rel=1e-12)
    assert v == pytest.approx(1.0, rel=1e-12)


def test_sharp_peak_is_resolved():
    # Lorentzian of width 1e-3 centered inside the interval
    w2 = 1e-6
    f = lambda x: 1.0 / ((x - 0.3) ** 2 + w2)
    expected = (math.atan(0.7 / 1e-3) + math.atan(0.3 / 1e-3)) / 1e-3
    assert _scalar_integral(f, [0.0, 1.0], tol=1e-11) == pytest.approx(expected, rel=1e-9)


def test_agrees_with_scipy_reference():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    f = lambda x: math.exp(-x) * math.sin(3.0 * x)
    ours = _scalar_integral(f, [0.0, 10.0], tol=1e-12)
    ref, _ = scipy_integrate.quad(f, 0.0, 10.0, epsabs=1e-13, epsrel=1e-13)
    assert ours == pytest.approx(ref, rel=1e-10)


def test_loose_tolerance_still_bounds_the_error():
    value = _scalar_integral(math.sin, [0.0, math.pi], tol=1e-3)
    assert abs(value - 2.0) <= 1e-3 * 2.0 + 1e-3


def test_deterministic_bitwise():
    f = lambda x: (math.sin(7.0 * x) ** 2, math.exp(-x))
    first = adaptive_pair_quadrature(f, [0.0, 0.7, 3.0], tol=1e-12)
    second = adaptive_pair_quadrature(f, [0.0, 0.7, 3.0], tol=1e-12)
    assert first == second


def test_rejects_bad_breaks_and_tolerance():
    with pytest.raises(ValueError):
        _scalar_integral(math.sin, [1.0, 0.0])
    with pytest.raises(ValueError):
        _scalar_integral(math.sin, [0.0])
    with pytest.raises(ValueError):
        _scalar_integral(math.sin, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        _scalar_integral(math.sin, [0.0, 1.0], tol=0.0)
    with pytest.raises(ValueError):
        _scalar_integral(math.sin, [0.0, 1.0], tol=-1e-10)


def test_panel_budget_exhaustion_raises():
    """An unresolvable oscillation must fail loudly, not spin or return junk."""
    f = lambda x: math.sin(5e5 * x)
    with pytest.raises(QuadratureError, match="panels"):
        _scalar_integral(f, [0.0, 1.0], tol=1e-13)


def test_array_panels_reproduce_the_scalar_rule_bit_for_bit():
    # a rational integrand evaluates to the same bits as scalar or array
    def f(y):
        return y * y / (1.0 + y), 1.0 / (2.0 + y * y * y)

    a = np.array([[0.0, 0.3, 1.7], [2.0, 5.5, 9.0]])
    b = np.array([[0.3, 1.7, 4.0], [5.5, 9.0, 40.0]])
    err, u, v = kronrod_pair_panels(f, a, b)
    assert err.shape == u.shape == v.shape == a.shape
    for idx in np.ndindex(a.shape):
        assert (err[idx], u[idx], v[idx]) == _kronrod_panel(f, float(a[idx]), float(b[idx]))


def _rational_pair(y, c):
    # rational, so scalar and array evaluation give the same bits
    return 1.0 / (c + y * y), y / (1.0 + (y - c) * (y - c))


def test_batched_rows_reproduce_the_scalar_loop_bit_for_bit():
    c = np.array([[1e-4], [0.3], [2.0], [50.0]])
    breaks = np.array([np.geomspace(1e-3, 30.0, 13), np.linspace(0.0, 5.0, 13)] * 2)
    breaks[2:] += 0.25
    for tol in (1e-10, 1e-13):
        u, v = batched_pair_quadrature(lambda y, rows: _rational_pair(y, c[rows]), breaks, tol)
        for i in range(len(c)):
            ci = float(c[i, 0])
            expected = oracle_quadrature(lambda y: _rational_pair(y, ci), breaks[i], tol)
            assert (u[i], v[i]) == expected
            assert adaptive_pair_quadrature(lambda y: _rational_pair(y, ci), breaks[i], tol) == expected


def test_batched_panel_budget_exhaustion_raises():
    def f(y, rows):
        return np.sin(5e5 * y), np.zeros_like(y)

    with pytest.raises(QuadratureError, match="panels"):
        batched_pair_quadrature(f, np.linspace(0.0, 1.0, 13)[None, :], 1e-13)
