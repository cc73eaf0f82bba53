"""A high-precision referee for the clock.

Every check of the library compares two double-precision routes; when both
share an error it passes unseen.  Here mpmath, at 40 digits, gives the true
value of the clock maps on the exact double inputs, and both of the clock's
paths (the float path _pow_pos and the array path pow_arr) are held to it,
point by point, over t in [1e-6, 10] and the orders 0.02 to 1.

Both paths compute exp(p log b), so the rounding of log b, of the product
and of exp reach the result multiplied by |p log b| and by 1:

- psi(t) = exp(delta log t) / delta is within (2 + delta |ln t|) eps
  relative (measured: at most 0.62 of it; the largest error is 5.7 eps,
  at delta = 0.7);
- psi_inv(s) = exp(log(delta s) / delta) also carries the rounding of
  delta s and of its logarithm times 1/delta, with log(delta s) / delta =
  ln t: it is within (2 + 1/delta + 2 |ln t|) eps relative (measured: at
  most 0.36 of it; the largest error is 4.6e-15, at delta = 0.02).

The 1/delta amplification is the larger part at the order floor: there
the bound reaches 1.8e-14, under a fifth of the 1e-13 clock_roundtrip gate
that the round trip psi_inv(psi(t)) is held to.  At delta = 1 both maps
are exact.  The file runs in about 0.1 s.
"""

import mpmath
import numpy as np
import pytest

from confsemi import Order

EPS = np.finfo(float).eps
DELTAS = (0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0)
# t over [1e-6, 10], log-spaced, with both ends and t = 1 among them
TIMES = np.geomspace(1e-6, 10.0, 141)
LOG_T = np.abs(np.log(TIMES))


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


def rel_errors(got, want):
    """|got - want| / |want| per entry, got exact doubles, want mpf"""
    return np.array([float(abs(mpmath.mpf(float(g)) - w) / abs(w))
                     for g, w in zip(got, want)])


def both_paths(f, values):
    """f on its float path, value by value, and on its array path"""
    return [f(float(v)) for v in values], f(np.array(values))


@pytest.mark.parametrize("delta", DELTAS)
def test_psi_is_within_rounding_of_the_referee(delta):
    order = Order(delta)
    d = mpmath.mpf(delta)
    want = [mpmath.mpf(float(t)) ** d / d for t in TIMES]
    bound = (2.0 + delta * LOG_T) * EPS
    for got in both_paths(order.psi, TIMES):
        assert np.all(rel_errors(got, want) <= bound)


@pytest.mark.parametrize("delta", DELTAS)
def test_psi_inv_is_within_rounding_of_the_referee(delta):
    """on the doubles s = psi(t), the inputs the round trip feeds it"""
    order = Order(delta)
    d = mpmath.mpf(delta)
    s_values = order.psi(TIMES)
    want = [(d * mpmath.mpf(float(s))) ** (1 / d) for s in s_values]
    bound = (2.0 + 1.0 / delta + 2.0 * LOG_T) * EPS
    for got in both_paths(order.psi_inv, s_values):
        assert np.all(rel_errors(got, want) <= bound)
