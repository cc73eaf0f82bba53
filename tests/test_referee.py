"""A high-precision referee for the clock and the orbit oracle.

Every check of the library compares two double-precision routes; when both
share an error it passes unseen.  Here mpmath, at 40 digits, gives the true
value of the clock maps on the exact double inputs, and both of the clock's
paths (a float through C pow, an array through numpy's power loop) are held
to it, point by point, over t in [1e-6, 10] and the orders 0.02 to 1.

Each path rounds a power once, to within an ulp (at most eps relative;
measured over random bases at the exponents 0.02, 0.3 and 0.7: 0.50 eps
for C pow, 0.57 eps for numpy's loop), and each product or quotient to
within eps/2:

- psi(t) = t**delta / delta is within 1.5 eps relative at every t
  (measured: at most 0.54 of it, 0.80 eps at delta = 0.1);
- psi_inv(s) = (delta s)**(1/delta) also carries the rounding of delta s
  and of 1/delta into the power: the first is raised to the power 1/delta,
  the second multiplies log(delta s) / delta = ln t, so psi_inv is within
  (1 + 1/(2 delta) + |ln t| / 2) eps relative (measured: at most 0.62 of
  it; the largest error is 16.4 eps, at delta = 0.02).

The 1/delta amplification of the rounding of delta s is the larger part
at the order floor: there the bound reaches 7.3e-15, under a tenth of the
1e-13 clock_roundtrip gate that the round trip psi_inv(psi(t)) is held to.
At delta = 1 both maps are exact.

The orbit oracle's two routes, the flow exp(psi(t) A) x0 and the adaptive
orbit, are held to mpmath's expm of psi(t) A at 40 digits, psi(t) taken in
mpmath on the double t, for nonnormal4 and x0 = (1, -1, 0.5, 1) at the
report's three orbit orders and solver settings.  The flow must be within
1e-12 relative at every output time (measured: about 1.1e-15), so the
check's residual, the worst gap between the routes, is the orbit's own
error: its true worst error must lie within [0.5, 2] times that residual
(measured ratio: 1.000).

The dense route, evolve_classical on the five semigroup fixtures at s from
2**-12 to 40, is held to mpmath's expm of s A at 40 digits in the relative
1-norm.  The scaling and squaring has a backward error of at most the unit
roundoff eps/2 (Al-Mohy and Higham pick the degree and squarings for
that); the exponential's relative condition number in the 1-norm is
||sA||_1 for a normal A, the fixtures' nonnormality adds a modest factor,
and each n-term product rounds by about n eps.  The bound is
4 n eps max(1, ||sA||_1) (measured: at most 0.30 eps max(1, ||sA||_1),
and 0.71 for scipy's expm, which must meet the same bound).  The file runs
in about 1 s.
"""

import mpmath
import numpy as np
import pytest

from scipy.linalg import expm as scipy_expm

from confsemi import (ConformableSemigroup, Order, evolve_classical,
                      solve_conformable_ode)
from confsemi.suites import (_cascade3, _diag_complex, _diag_decay,
                             _nilpotent2, _nonnormal4, _orbit_gap)

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
    bound = 1.5 * EPS
    for got in both_paths(order.psi, TIMES):
        assert np.all(rel_errors(got, want) <= bound)


@pytest.mark.parametrize("delta", DELTAS)
def test_psi_inv_is_within_rounding_of_the_referee(delta):
    """on the doubles s = psi(t), the inputs the round trip feeds it"""
    order = Order(delta)
    d = mpmath.mpf(delta)
    s_values = order.psi(TIMES)
    want = [(d * mpmath.mpf(float(s))) ** (1 / d) for s in s_values]
    bound = (1.0 + 0.5 / delta + 0.5 * LOG_T) * EPS
    for got in both_paths(order.psi_inv, s_values):
        assert np.all(rel_errors(got, want) <= bound)


@pytest.mark.parametrize("delta, solver", [
    (0.4, {}), (0.7, {}), (1.0, {"rtol": 1e-10, "atol": 1e-13})],
    ids=["orbit_oracle-0.4", "orbit_oracle-0.7", "orbit_reduction-1.0"])
def test_orbit_routes_against_the_referee(delta, solver):
    """the routes of semigroup.orbit_oracle (and orbit_reduction at
    delta = 1, with its tighter tolerances) against mpmath's expm"""
    g = _nonnormal4()
    x0 = np.array([1.0, -1.0, 0.5, 1.0])
    order = Order(delta)
    orbit = solve_conformable_ode(g, order, x0, 2.0, **solver)
    flows = ConformableSemigroup(g, order).evolve(orbit.times[1:], x0)
    a = mpmath.matrix(g.entries.tolist())
    d = mpmath.mpf(delta)
    flow_error = orbit_error = 0.0
    for t, state, flow in zip(orbit.times[1:], orbit.states[1:], flows):
        psi = mpmath.mpf(float(t)) ** d / d
        truth = mpmath.expm(psi * a) * mpmath.matrix(x0.tolist())
        scale = mpmath.norm(truth)
        flow_error = max(flow_error, float(
            mpmath.norm(mpmath.matrix(flow.tolist()) - truth) / scale))
        orbit_error = max(orbit_error, float(
            mpmath.norm(mpmath.matrix(state.tolist()) - truth) / scale))
    residual = _orbit_gap(delta, **solver)
    assert flow_error <= 1e-12
    assert 0.5 * residual <= orbit_error <= 2.0 * residual


@pytest.mark.parametrize("fixture", [_nilpotent2, _diag_decay, _diag_complex,
                                     _cascade3, _nonnormal4])
def test_dense_route_against_the_referee(fixture):
    """evolve_classical's dense flow, and scipy's expm, within
    4 n eps max(1, ||sA||_1) of mpmath's expm in the relative 1-norm"""
    g = fixture()
    n = g.dim
    times = [2.0 ** k for k in range(-12, 6)] + [40.0]
    flows = evolve_classical(g, np.array(times), np.eye(n))
    for s, flow in zip(times, flows):
        truth = mpmath.expm(mpmath.matrix((s * g.entries).tolist()))
        scale = float(mpmath.norm(truth, 1))
        bound = 4 * n * EPS * max(1.0, float(np.linalg.norm(s * g.entries, 1)))
        for got in (flow, scipy_expm(s * g.entries)):
            gap = mpmath.matrix(got.tolist()) - truth
            assert float(mpmath.norm(gap, 1)) / scale <= bound, (s, got)
