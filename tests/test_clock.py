"""Order validation and the forward/inverse rescaling pair."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsemi import Clock, Order
from confsemi.clock import pow_pos

DELTAS = st.floats(min_value=0.05, max_value=1.0, exclude_min=True)
TIMES = st.floats(min_value=1e-6, max_value=50.0)


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.2, 2.0, float("nan")])
def test_order_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Order(bad)


@pytest.mark.parametrize("good", [1e-6, 0.3, 0.5, 1.0])
def test_order_accepts_unit_interval(good):
    assert Order(good).delta == good


def test_pow_pos_zero_base():
    assert pow_pos(0.0, 0.5) == 0.0
    assert pow_pos(0.0, 2.5) == 0.0


def test_pow_pos_unit_exponent_is_bitwise():
    # order-1 reductions must not pick up the ~1 ulp exp/log round trip
    for v in (0.7300000001, 1.0, 3.141592653589793, 1e-12):
        assert pow_pos(v, 1.0) == v


def test_negative_dust_is_clamped():
    c = Clock(Order(0.4))
    assert c.psi(-5e-16) == 0.0
    assert c.psi_inv(-5e-16) == 0.0


def test_genuinely_negative_time_raises():
    c = Clock(Order(0.4))
    with pytest.raises(ValueError):
        c.psi(-1e-3)
    with pytest.raises(ValueError):
        c.psi_inv(-1e-3)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, t=TIMES)
def test_roundtrip_bijection(delta, t):
    c = Clock(Order(delta))
    back = c.psi_inv(c.psi(t))
    assert back == pytest.approx(t, rel=1e-12)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, t=TIMES)
def test_forward_value(delta, t):
    c = Clock(Order(delta))
    assert c.psi(t) == pytest.approx(t**delta / delta, rel=1e-13)


@settings(deadline=None, max_examples=200)
@given(delta=DELTAS, r=TIMES, q=TIMES)
def test_additive_composition(delta, r, q):
    """psi_inv(psi(r) + psi(q)) equals the order-delta sum of r and q."""
    c = Clock(Order(delta))
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
    c = Clock(Order(delta))
    lo, hi = sorted((t1, t2))
    assert c.psi(lo) <= c.psi(hi)
    if hi - lo > 1e-12 * hi:
        assert c.psi(lo) < c.psi(hi)


def test_order_one_is_identity_clock():
    c = Clock(Order(1.0))
    for t in (0.0, 0.3, 1.0, 7.25):
        assert c.psi(t) == t
        assert c.psi_inv(t) == t


def test_half_order_example():
    # delta = 1/2 sends t to 2 sqrt(t)
    c = Clock(Order(0.5))
    assert c.psi(4.0) == pytest.approx(4.0, rel=1e-15)
    assert c.psi(0.25) == pytest.approx(1.0, rel=1e-15)
    assert c.psi_inv(1.0) == pytest.approx(0.25, rel=1e-15)
    assert math.isclose(c.psi(9.0), 6.0, rel_tol=1e-15)
