"""Order validation and the forward/inverse rescaling pair."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsemi import Order
from confsemi.clock import pow_arr

DELTAS = st.floats(min_value=0.05, max_value=1.0, exclude_min=True)
TIMES = st.floats(min_value=1e-6, max_value=50.0)


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.2, 2.0, float("nan")])
def test_order_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Order(bad)


@pytest.mark.parametrize("good", [1e-6, 0.3, 0.5, 1.0])
def test_order_accepts_unit_interval(good):
    assert Order(good).delta == good


def test_zero_time_maps_to_zero():
    for delta in (0.02, 0.5, 1.0):
        c = Order(delta)
        assert c.psi(0.0) == 0.0
        assert c.psi_inv(0.0) == 0.0


def test_pow_pos_unit_exponent_is_bitwise():
    # order-1 reductions must not pick up a rounding of the power
    for v in (0.7300000001, 1.0, 3.141592653589793, 1e-12):
        assert v ** 1.0 == v
        assert Order(1.0).psi(v) == v


def test_negative_dust_is_clamped():
    c = Order(0.4)
    assert c.psi(-5e-16) == 0.0
    assert c.psi_inv(-5e-16) == 0.0


def test_genuinely_negative_time_raises():
    c = Order(0.4)
    with pytest.raises(ValueError):
        c.psi(-1e-3)
    with pytest.raises(ValueError):
        c.psi_inv(-1e-3)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, t=TIMES)
def test_roundtrip_bijection(delta, t):
    c = Order(delta)
    back = c.psi_inv(c.psi(t))
    assert back == pytest.approx(t, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, t=TIMES)
def test_forward_value(delta, t):
    c = Order(delta)
    assert c.psi(t) == pytest.approx(t**delta / delta, rel=1e-13)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, r=TIMES, q=TIMES)
def test_additive_composition(delta, r, q):
    """psi_inv(psi(r) + psi(q)) equals the order-delta sum of r and q."""
    c = Order(delta)
    combined = c.psi_inv(c.psi(r) + c.psi(q))
    expect = (r**delta + q**delta) ** (1.0 / delta)
    assert combined == pytest.approx(expect, rel=1e-11)


@settings(deadline=None, max_examples=100)
@given(delta=DELTAS, t1=TIMES, t2=TIMES)
@example(delta=0.5, t1=0.05, t2=0.05000000000000001)
def test_strictly_monotone(delta, t1, t2):
    """psi never decreases, and increases strictly once the gap is above
    rounding: psi shrinks relative spacing by delta < 1, so two adjacent
    floats can map to one value."""
    c = Order(delta)
    lo, hi = sorted((t1, t2))
    assert c.psi(lo) <= c.psi(hi)
    if hi - lo > 1e-12 * hi:
        assert c.psi(lo) < c.psi(hi)


def test_order_one_is_identity_clock():
    # bit for bit: order-1 reductions must not pick up a rounding of the power
    c = Order(1.0)
    for t in (0.0, 0.3, 1.0, 7.25, 0.7300000001, 3.141592653589793, 1e-12,
              5e-324, 1e300):
        assert c.psi(t) == t
        assert c.psi_inv(t) == t


def test_half_order_example():
    # delta = 1/2 sends t to 2 sqrt(t)
    c = Order(0.5)
    assert c.psi(4.0) == pytest.approx(4.0, rel=1e-15)
    assert c.psi(0.25) == pytest.approx(1.0, rel=1e-15)
    assert c.psi_inv(1.0) == pytest.approx(0.25, rel=1e-15)
    assert math.isclose(c.psi(9.0), 6.0, rel_tol=1e-15)


# array power helper ---------------------------------------------------------

def test_pow_arr_zero_and_unit_branches():
    base = np.array([0.0, 0.25, 1.0, 2.7182818])
    out = pow_arr(base, 0.5)
    assert out[0] == 0.0
    assert out[2] == pytest.approx(1.0, rel=1e-15)
    unit = pow_arr(base, 1.0)
    assert np.array_equal(unit, base)
    unit[0] = 99.0  # exponent-1 branch must copy, not alias
    assert base[0] == 0.0
    assert np.array_equal(pow_arr(base, 0.0), np.ones(4))
    assert np.isnan(pow_arr(np.array([np.nan]), 0.5)[0])  # not a zero base
    with pytest.raises(ValueError):
        pow_arr(base, -0.4)
    assert pow_arr(base[1:], -0.5)[0] == pytest.approx(2.0, rel=1e-15)


def test_pow_arr_matches_scalar_power():
    base = np.linspace(0.1, 3.0, 7)
    got = pow_arr(base, 0.37)
    assert np.allclose(got, base**0.37, rtol=1e-14)


# array clock -------------------------------------------------------------------

TINY = np.finfo(float).tiny
# 0, subnormals, the smallest normal, and ordinary values
ARRAY_INPUTS = np.array([0.0, 5e-324, 1e-310, TINY / 2.0, TINY, 1e-300, 1e-12,
                         1e-6, 0.3, 1.0, 1.7, 10.0, 1e6])


@pytest.mark.parametrize("delta", [0.02, 0.3, 0.5, 1.0])
def test_array_clock_matches_the_inline_formulas(delta):
    """the array maps keep the bits of the formulas they replace"""
    c = Order(delta)
    x = ARRAY_INPUTS.copy()
    assert np.array_equal(c.psi(x), pow_arr(x, delta) / delta)
    assert np.array_equal(c.psi_inv(x), pow_arr(delta * x, 1.0 / delta))
    grid = x.reshape(13, 1)
    assert np.array_equal(c.psi(grid), (pow_arr(x, delta) / delta).reshape(13, 1))
    assert np.array_equal(x, ARRAY_INPUTS)  # inputs are not written to


@pytest.mark.parametrize("delta", [0.02, 0.3, 0.5, 1.0])
def test_array_clock_agrees_with_the_scalar_clock(delta):
    c = Order(delta)
    x = np.array([0.0, 1e-6, 0.3, 1.0, 1.7, 10.0])
    assert np.allclose(c.psi(x), [c.psi(v) for v in x], rtol=1e-14, atol=0.0)
    assert np.allclose(c.psi_inv(x), [c.psi_inv(v) for v in x],
                       rtol=1e-13, atol=0.0)


def test_array_negative_time_raises_and_dust_is_clamped():
    c = Order(0.4)
    bad = np.array([0.5, -1e-3])
    with pytest.raises(ValueError):
        c.psi(bad)
    with pytest.raises(ValueError):
        c.psi_inv(bad)
    with pytest.raises(ValueError):
        c.psi(np.array([np.nextafter(-1e-15, -1.0)]))
    dust = np.array([-5e-16, 0.5])
    assert np.array_equal(c.psi(dust), [0.0, c.psi(np.array([0.5]))[0]])
    assert c.psi_inv(dust)[0] == 0.0
    assert dust[0] == -5e-16
