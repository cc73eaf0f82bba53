"""Fractional-order derivative, weighted integral, and the quadrature rule."""

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from confsemi import (FunctionHandle, Order, WeightedQuadrature,
                      conf_derivative, conf_derivative_iterated,
                      conf_derivative_limit, conf_integral)
from confsemi.clock import pow_arr

SIN = FunctionHandle(np.sin, np.cos, lambda t: -np.sin(t))
EXPD = FunctionHandle(lambda t: np.exp(-t), lambda t: -np.exp(-t),
                      lambda t: np.exp(-t))


def monomial(m):
    return FunctionHandle(lambda t: t**m,
                          lambda t: m * t ** (m - 1),
                          lambda t: m * (m - 1) * t ** (m - 2))


# quadrature against closed forms ------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_quadrature_monomial_oracle(delta, m):
    """integral of t^m t^(delta-1) dt over (0,1) is 1/(m+delta)."""
    quad = WeightedQuadrature.build(Order(delta), 0.0, 1.0)
    got = conf_integral(monomial(m), Order(delta), 0.0, 1.0, quad)
    assert got == pytest.approx(1.0 / (m + delta), rel=1e-13)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_quadrature_exponential_oracle(delta, p):
    """integral of e^(-pt) t^(delta-1) dt over (0,T) via the lower gamma."""
    t_end = 2.0
    f = FunctionHandle(lambda t: np.exp(-p * t))
    quad = WeightedQuadrature.build(Order(delta), 0.0, t_end)
    got = conf_integral(f, Order(delta), 0.0, t_end, quad)
    want = gamma(delta) * gammainc(delta, p * t_end) / p**delta
    assert got == pytest.approx(want, rel=1e-13)


def test_quadrature_interval_and_panels():
    quad = WeightedQuadrature.build(Order(0.5), 0.0, 1.0, panels=4)
    assert quad.interval == (0.0, 1.0)
    assert quad.panels == 4
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights > 0)


def test_quadrature_refinement_converges():
    # panel doubling must shrink the error on a smooth transformed integrand
    delta = Order(0.5)
    f = FunctionHandle(lambda t: np.exp(np.sin(t**0.5 / 0.5)))
    ref = conf_integral(f, delta, 0.0, 1.0,
                        WeightedQuadrature.build(delta, 0.0, 1.0, 64, 16))
    errs = []
    for panels in (4, 8, 16):
        quad = WeightedQuadrature.build(delta, 0.0, 1.0, panels, 4)
        errs.append(abs(conf_integral(f, delta, 0.0, 1.0, quad) - ref))
    assert errs[0] / max(errs[1], 1e-300) >= 100.0
    assert errs[1] / max(errs[2], 1e-300) >= 100.0


# derivative ----------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_rule(delta, m):
    """derivative of t^m at order delta is m t^(m-delta)."""
    f = monomial(m)
    for t in (0.3, 0.8, 1.5):
        got = conf_derivative(f, Order(delta), t)
        assert got == pytest.approx(m * t ** (m - delta), rel=1e-13)


@pytest.mark.parametrize("delta", [0.4, 0.7, 1.0])
def test_limit_quotient_matches_analytic(delta):
    # the finite-h quotient floors near 1e-8, scale against max(1, value)
    for f, t in ((SIN, 0.9), (EXPD, 1.3), (monomial(2), 0.6)):
        lim = conf_derivative_limit(f, Order(delta), t)
        ana = conf_derivative(f, Order(delta), t)
        assert abs(lim - ana) / max(1.0, abs(ana)) <= 5e-8


def test_classical_reduction_at_order_one():
    for f, t in ((SIN, 0.9), (EXPD, 0.4)):
        got = conf_derivative(f, Order(1.0), t)
        assert got == pytest.approx(f.classical_derivative(t), rel=1e-13)


@pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
def test_iterated_second_derivative(delta):
    """applying the order-delta derivative twice to t^3."""
    f = monomial(3)
    for t in (0.5, 1.2):
        got = conf_derivative_iterated(f, Order(delta), 2, t)
        want = 3.0 * (3.0 - delta) * t ** (3.0 - 2.0 * delta)
        assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_integral_then_derivative(delta):
    """differentiating the running weighted integral recovers the integrand."""
    d = Order(delta)

    def profile(t):
        t = float(t)
        if t == 0.0:
            return 0.0
        quad = WeightedQuadrature.build(d, 0.0, t, 8, 12)
        return conf_integral(SIN, d, 0.0, t, quad)

    big = FunctionHandle(profile)
    for t in (0.4, 1.0, 1.6):
        got = conf_derivative_limit(big, d, t)
        assert abs(got - np.sin(t)) / max(1.0, abs(np.sin(t))) <= 1e-8


@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_derivative_then_integral(delta):
    """integrating the order-delta derivative telescopes the function.

    The check starts away from 0: the substituted integrand of the
    derivative carries a fractional cusp at the origin.
    """
    d = Order(delta)
    t_lo, t_hi = 0.25, 1.5
    stretched = FunctionHandle(
        lambda t: pow_arr(np.asarray(t, dtype=float), 1.0 - delta) * np.cos(t))
    quad = WeightedQuadrature.build(d, t_lo, t_hi)
    got = conf_integral(stretched, d, t_lo, t_hi, quad)
    assert got == pytest.approx(np.sin(t_hi) - np.sin(t_lo), rel=1e-10)
