"""Weighted-norm identities, the two unitaries, and worked values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsemi import (Clock, FunctionHandle, Order, TransportModel,
                      WeightedQuadrature, apply_Q, inner_product_2delta,
                      lp_delta_norm, make_weight, sobolev_norm,
                      spatial_unitary_apply, time_isometry_apply)

HORIZON = 1.0


def corpus():
    return [
        ("one", FunctionHandle(lambda t: np.ones_like(np.asarray(t, float)),
                               lambda t: np.zeros_like(np.asarray(t, float)),
                               lambda t: np.zeros_like(np.asarray(t, float)))),
        ("linear", FunctionHandle(lambda t: np.asarray(t, float),
                                  lambda t: np.ones_like(np.asarray(t, float)),
                                  lambda t: np.zeros_like(np.asarray(t, float)))),
        ("square", FunctionHandle(lambda t: np.asarray(t, float) ** 2,
                                  lambda t: 2.0 * np.asarray(t, float),
                                  lambda t: 2.0 * np.ones_like(np.asarray(t, float)))),
        ("sine", FunctionHandle(np.sin, np.cos, lambda t: -np.sin(t))),
        ("exp_decay", FunctionHandle(lambda t: np.exp(-t),
                                     lambda t: -np.exp(-t),
                                     lambda t: np.exp(-t))),
    ]


def quad_for(delta):
    return WeightedQuadrature.build(Order(delta), 0.0, HORIZON)


def plain_graded_gauss(end, fn, depth=14, pts=24):
    # independent plain rule with geometric endpoint refinement
    nodes, weights = np.polynomial.legendre.leggauss(pts)
    cuts = [0.0] + [end * 2.0 ** (-k) for k in range(depth, -1, -1)]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(weights * fn(mid + half * nodes)))
    return total


# worked values ---------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 1.0])
def test_norm_of_constant_one(delta):
    """squared norm of the constant 1 is 1/delta on the unit horizon."""
    got = lp_delta_norm(corpus()[0][1], 2.0, quad_for(delta))
    assert got == pytest.approx((1.0 / delta) ** 0.5, rel=1e-13)


def test_norm_of_identity_function_at_half():
    got = lp_delta_norm(corpus()[1][1], 2.0, quad_for(0.5))
    assert got == pytest.approx((2.0 / 5.0) ** 0.5, rel=1e-13)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
def test_orthogonalization_constant(delta):
    """projecting t on the constants: c = delta/(1+delta), remainder orthogonal."""
    quad = quad_for(delta)
    one = corpus()[0][1]
    lin = corpus()[1][1]
    c = inner_product_2delta(lin, one, quad) / \
        inner_product_2delta(one, one, quad)
    assert complex(c).real == pytest.approx(delta / (1.0 + delta), rel=1e-12)
    rem = FunctionHandle(lambda t, cc=complex(c).real: np.asarray(t, float) - cc)
    ip = inner_product_2delta(rem, one, quad)
    assert abs(ip) <= 1e-10


def test_sobolev_layer_worked_value():
    # f = t at order one: squared layer-1 norm is 1/3 + 1
    got = sobolev_norm(corpus()[1][1], 1, 2.0, quad_for(1.0))
    assert got == pytest.approx((1.0 / 3.0 + 1.0) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_sobolev_layer_zero_is_plain_norm(delta):
    quad = quad_for(delta)
    for _, f in corpus():
        assert sobolev_norm(f, 0, 2.0, quad) == pytest.approx(
            lp_delta_norm(f, 2.0, quad), rel=1e-14)


@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_sobolev_layers_monotone(delta):
    quad = quad_for(delta)
    f = corpus()[3][1]
    norms = [sobolev_norm(f, m, 2.0, quad) for m in (0, 1, 2)]
    assert norms[0] <= norms[1] <= norms[2]


def test_transported_weight_worked_value():
    """exponential weight under the order-1/2 substitution becomes a Gaussian."""
    w = make_weight("exp_decay")
    moved = apply_Q(TransportModel(Order(0.5), w), w.rho, "forward")
    xi = np.linspace(0.0, 3.0, 13)
    assert np.allclose(moved(xi), np.exp(-(xi**2) / 4.0), rtol=1e-13)


# time isometry ---------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_time_isometry(delta, p):
    quad = quad_for(delta)
    clock = Clock(Order(delta))
    s_end = clock.psi(HORIZON)
    for _, f in corpus():
        left = lp_delta_norm(f, p, quad)
        g = time_isometry_apply(clock, HORIZON, f)
        right = plain_graded_gauss(s_end, lambda s: np.abs(g(s)) ** p) ** (1.0 / p)
        assert abs(left - right) <= 1e-10 * max(left, 1e-30)


# spatial unitary -------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
def test_spatial_unitarity(delta):
    quad = quad_for(delta)
    for _, f in corpus():
        left_sq = lp_delta_norm(f, 2.0, quad) ** 2
        g = spatial_unitary_apply(Order(delta), f, "forward")
        right_sq = plain_graded_gauss(1.0, lambda xi: np.abs(g(xi)) ** 2)
        assert abs(left_sq - right_sq) <= 1e-10 * max(left_sq, 1.0)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 1.0])
def test_spatial_unitarity_stretch_power_value(delta):
    """the squared norm of x^delta is 1/(3 delta), 2/3 at delta = 1/2."""
    f = FunctionHandle(lambda x, d=delta: np.asarray(x, float) ** d)
    left_sq = lp_delta_norm(f, 2.0, quad_for(delta)) ** 2
    assert left_sq == pytest.approx(1.0 / (3.0 * delta), rel=1e-12)
    if delta == 0.5:
        assert left_sq == pytest.approx(2.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("delta", [0.4, 1.0])
def test_spatial_unitary_roundtrip(delta):
    u = Order(delta)
    f = corpus()[3][1]
    back = spatial_unitary_apply(u, spatial_unitary_apply(u, f, "forward"),
                                 "inverse")
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(back(x), f(x), rtol=1e-12)


# inner-product structure -------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0),
                       min_size=4, max_size=4),
       delta=st.sampled_from([0.3, 0.6, 1.0]))
def test_cauchy_schwarz(coeffs, delta):
    quad = quad_for(delta)
    f = FunctionHandle(lambda t: np.polyval(coeffs, np.asarray(t, float)))
    g = FunctionHandle(lambda t: np.sin(3.0 * np.asarray(t, float)))
    ip = abs(inner_product_2delta(f, g, quad))
    bound = lp_delta_norm(f, 2.0, quad) * lp_delta_norm(g, 2.0, quad)
    assert ip <= bound * (1.0 + 1e-12) + 1e-12


def test_rule_off_zero_or_p_below_one_rejected():
    """the rule carries the order and (0, T); one on (a, T) with a > 0 or an
    exponent below 1 is rejected."""
    one = corpus()[0][1]
    off_zero = WeightedQuadrature.build(Order(0.7), 0.25, HORIZON)
    with pytest.raises(ValueError):
        lp_delta_norm(one, 2.0, off_zero)
    with pytest.raises(ValueError):
        inner_product_2delta(one, one, off_zero)
    with pytest.raises(ValueError):
        sobolev_norm(one, 1, 2.0, off_zero)
    with pytest.raises(ValueError):
        lp_delta_norm(one, 0.5, quad_for(0.7))
