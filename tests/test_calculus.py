"""Fractional-order derivative, weighted integral, and the quadrature rule."""

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from confsemi import (ConvergenceError, FunctionHandle, Order,
                      WeightedQuadrature, conf_derivative,
                      conf_derivative_iterated, conf_derivative_limit,
                      conf_integral, suites)
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
    got = conf_integral(monomial(m), quad)
    assert got == pytest.approx(1.0 / (m + delta), rel=1e-13)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_quadrature_exponential_oracle(delta, p):
    """integral of e^(-pt) t^(delta-1) dt over (0,T) via the lower gamma."""
    t_end = 2.0
    f = FunctionHandle(lambda t: np.exp(-p * t))
    quad = WeightedQuadrature.build(Order(delta), 0.0, t_end)
    got = conf_integral(f, quad)
    want = gamma(delta) * gammainc(delta, p * t_end) / p**delta
    assert got == pytest.approx(want, rel=1e-13)


def test_quadrature_interval_and_panels():
    quad = WeightedQuadrature.build(Order(0.5), 0.0, 1.0, panels=4)
    assert quad.interval == (0.0, 1.0)
    # the first of the 4 panels splits into GRADE_DEPTH + 1 graded ones
    n_panels = 4 + WeightedQuadrature.GRADE_DEPTH
    assert quad.nodes.shape == quad.weights.shape == (n_panels * 16,)
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights > 0)


def test_quadrature_refinement_converges():
    # panel doubling must shrink the error on a smooth transformed integrand
    delta = Order(0.5)
    f = FunctionHandle(lambda t: np.exp(np.sin(t**0.5 / 0.5)))
    ref = conf_integral(f, WeightedQuadrature.build(delta, 0.0, 1.0, 64, 16))
    errs = []
    for panels in (4, 8, 16):
        quad = WeightedQuadrature.build(delta, 0.0, 1.0, panels, 4)
        errs.append(abs(conf_integral(f, quad) - ref))
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


def test_reference_rule_is_cached_read_only(monkeypatch):
    """each point count's Gauss-Legendre rule is built once, read-only, and
    a quadrature built from it equals one built from a fresh leggauss"""
    from confsemi import calculus
    cached = calculus._gauss_legendre(16)
    assert cached is calculus._gauss_legendre(16)
    assert not any(arr.flags.writeable for arr in cached)
    built = WeightedQuadrature.build(Order(0.4), 0.0, 2.0)
    monkeypatch.setattr(calculus, "_gauss_legendre",
                        np.polynomial.legendre.leggauss)
    fresh = WeightedQuadrature.build(Order(0.4), 0.0, 2.0)
    assert np.array_equal(built.nodes, fresh.nodes)
    assert np.array_equal(built.weights, fresh.weights)


def _at_zero(f, delta, k):
    """D^k f(0) from the weights: t**(1-delta) is 1 at delta = 1 and 0
    below; for k = 2, t**(1-2 delta) is 1 at delta = 1/2 and unbounded
    above it (None), and the f' term drops at delta = 1."""
    if k == 1:
        return f.classical_derivative(0.0) if delta == 1.0 else 0.0
    if delta == 1.0:
        return f.second_derivative(0.0)
    if delta == 0.5:
        return 0.5 * f.classical_derivative(0.0)
    return 0.0 if delta < 0.5 else None


@pytest.mark.parametrize("delta", [0.02, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("k", [1, 2])
def test_array_route_matches_float_route(delta, k):
    """a float t and an array t both take the weight through pow_arr, so
    they agree bitwise and a float gives a scalar; t = 0 gives the limit
    of the weights (see _at_zero) or raises where a weight is unbounded,
    and a negative entry raises."""
    order = Order(delta)
    t = np.linspace(1e-3, 3.0, 301)
    for f in (SIN, EXPD, monomial(3)):
        got = conf_derivative_iterated(f, order, k, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        for value, ti in zip(got, t):
            want = conf_derivative_iterated(f, order, k, float(ti))
            assert np.ndim(want) == 0 and value == want
        want = _at_zero(f, delta, k)
        if want is None:
            with pytest.raises(ValueError):
                conf_derivative_iterated(f, order, k, np.array([0.0, 1.0]))
            with pytest.raises(ValueError):
                conf_derivative_iterated(f, order, k, 0.0)
        else:
            at_zero = conf_derivative_iterated(f, order, k, np.array([0.0, 1.0]))
            assert at_zero[0] == want
            assert conf_derivative_iterated(f, order, k, 0.0) == want
        with pytest.raises(ValueError):
            conf_derivative_iterated(f, order, k, np.array([1.0, -0.5]))


@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_integral_then_derivative(delta):
    """differentiating the running weighted integral recovers the integrand."""
    d = Order(delta)

    def profile(t):
        quad = WeightedQuadrature.build(d, 0.0, t, 8, 12)
        return conf_integral(SIN, quad)

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
    got = conf_integral(stretched, quad)
    assert got == pytest.approx(np.sin(t_hi) - np.sin(t_lo), rel=1e-10)


# stacks equal their rows bit for bit ----------------------------------------

def _split_power_ends(delta, a):
    """Right ends above a, with some where numpy's array power and Python's
    float power round psi's t**delta differently (none at delta = 1, where
    both are exact)."""
    rng = np.random.default_rng([3, int(round(1000 * delta))])
    draws = rng.uniform(a + 0.05, 3.0, 20000)
    split = [b for b, arr in zip(draws.tolist(), (draws ** delta).tolist())
             if b ** delta != arr]
    return np.array([a + 0.3, a + 1.0, 2.75] + split[:5])


@pytest.mark.parametrize("delta", [0.02, 0.5, 1.0])
@pytest.mark.parametrize("a", [0.0, 0.25])
def test_stacked_rule_equals_its_rows(delta, a):
    """a rule built on an array of right ends is the stack of the rules
    built on each end, and conf_integral reduces each row bit for bit"""
    order = Order(delta)
    ends = _split_power_ends(delta, a)
    if delta != 1.0:
        assert len(ends) > 3
    stacked = WeightedQuadrature.build(order, a, ends.reshape(1, -1))
    assert stacked.nodes.shape[:2] == (1, len(ends))
    nodes = stacked.nodes.reshape(len(ends), -1)
    weights = stacked.weights.reshape(len(ends), -1)
    got = conf_integral(SIN, stacked).ravel()
    assert got.dtype == complex
    for k, end in enumerate(ends.tolist()):
        row = WeightedQuadrature.build(order, a, end)
        assert np.array_equal(nodes[k], row.nodes)
        assert np.array_equal(weights[k], row.weights)
        want = conf_integral(SIN, row)
        assert isinstance(want, complex) and got[k] == want


@pytest.mark.parametrize("delta", [0.02, 0.3, 0.5, 1.0])
def test_limit_quotient_stack_equals_float_calls(delta):
    """an array t gives the float calls' limits bit for bit, on the calculus
    corpus and on the suite's running-integral profile"""
    order = Order(delta)
    t = np.array([0.25, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
    handles = list(suites._CALC_CORPUS) + [
        suites._integral_profile(f, order) for f in suites._CALC_CORPUS]
    for f in handles:
        got = conf_derivative_limit(f, order, t)
        assert got.shape == t.shape
        for value, ti in zip(got.tolist(), t.tolist()):
            want = conf_derivative_limit(f, order, ti)
            assert np.ndim(want) == 0 and value == want
    square = conf_derivative_limit(SIN, order, t[:6].reshape(2, 3))
    assert np.array_equal(square.ravel(), conf_derivative_limit(SIN, order, t[:6]))


def _offset_at(bad):
    """sin plus a fixed offset 1e-3 at the points in `bad` alone: the
    quotient's error there is 1e-3 / h, which grows as h shrinks."""
    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.sin(t) + 1e-3 * np.isin(t, bad)
    return FunctionHandle(ev)


def test_diverging_quotient_raises_naming_its_t():
    """a float t, or the first diverging t of an array, is named in the
    ConvergenceError; t <= 0 is a ValueError"""
    f = _offset_at([0.7, 1.3])
    assert conf_derivative_limit(f, Order(0.5), 0.4) == pytest.approx(
        conf_derivative(SIN, Order(0.5), 0.4), rel=1e-8)
    with pytest.raises(ConvergenceError, match=r"at t=0\.7, delta=0\.5"):
        conf_derivative_limit(f, Order(0.5), 0.7)
    with pytest.raises(ConvergenceError, match=r"at t=0\.7, delta=0\.5"):
        conf_derivative_limit(f, Order(0.5), np.array([0.4, 0.7, 1.0, 1.3]))
    with pytest.raises(ConvergenceError, match=r"at t=1\.3,"):
        conf_derivative_limit(f, Order(0.5), np.array([1.3, 0.7]))
    for bad_t in (0.0, -1.0, np.array([0.5, 0.0]), np.array([[1.0], [-2.0]])):
        with pytest.raises(ValueError):
            conf_derivative_limit(SIN, Order(0.5), bad_t)
