"""Matrix evolution, the composed-clock family, and its generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from confsemi import (ConformableSemigroup, GeneratorMatrix, Order,
                      contraction_check, delta_law_residual,
                      dirichlet_second_difference, dissipativity_margin,
                      evolve_classical, generator_delta_quotient,
                      resolvent_bound_check, solve_conformable_ode,
                      strong_continuity_check, taylor_matrix_exp)
from confsemi import semigroup
from confsemi.config import TOLERANCE_DEFAULTS
from confsemi.semigroup import (_DP_A, _DP_B4, _DP_B5, _DP_C, _rk45_advance,
                                _toeplitz_eigenpairs)
from confsemi.suites import _orbit_gap


def nilpotent2():
    return GeneratorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0,
                           "nilpotent2")


def diag_decay():
    return GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "diag_decay")


def diag_complex():
    return GeneratorMatrix(np.diag([-0.3 + 2.0j, -1.0 + 0.0j]), 1.0,
                           "diag_complex")


def nonnormal4():
    entries = np.array([[-1.0, 2.0, 0.0, 1.0],
                        [0.0, -0.5, 3.0, 0.0],
                        [0.0, 0.0, -2.0, 1.0],
                        [0.0, 0.0, 0.0, 0.3]])
    return GeneratorMatrix(entries, 1.0, "nonnormal4")


def conformable(g, delta):
    return ConformableSemigroup(g, Order(delta))


# classical evolution ---------------------------------------------------------

@pytest.mark.parametrize("g", [nilpotent2(), diag_decay(), diag_complex(),
                               nonnormal4()], ids=lambda g: g.label)
@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_evolution_matches_series_oracle(g, s):
    """column-wise evolution agrees with an in-repo truncated series."""
    n = g.dim
    via_series = taylor_matrix_exp(s * g.entries)
    cols = np.stack([evolve_classical(g, s, np.eye(n, dtype=complex)[:, k])
                     for k in range(n)], axis=1)
    assert np.allclose(cols, via_series, rtol=1e-12, atol=1e-12)


def test_series_oracle_matches_diagonal_closed_form():
    lam = np.array([-1.0, -2.0])
    got = taylor_matrix_exp(np.diag(0.7 * lam))
    assert np.allclose(np.diag(got), np.exp(0.7 * lam), rtol=1e-14)


def test_nilpotent_closed_form():
    """exp(s B) = I + s B when B squares to zero."""
    g = nilpotent2()
    x = np.array([1.0, 2.0], dtype=complex)
    for s in (0.0, 0.4, 5.0):
        got = evolve_classical(g, s, x)
        want = x + s * (g.entries @ x)
        assert np.allclose(got, want, rtol=0, atol=1e-13 * (1.0 + s))


def test_half_order_square_root_flow():
    """at order 1/2 the composed clock gives exp(2 sqrt(t) B) exactly."""
    g = nilpotent2()
    cs = conformable(g, 0.5)
    x = np.array([0.5, -1.5], dtype=complex)
    for t in (0.25, 1.0, 4.0):
        got = cs.evolve(t, x)
        want = x + 2.0 * np.sqrt(t) * (g.entries @ x)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("entries, dtype", [
    (np.diag([-1.0, -2.0]), np.float64),
    ([[0, 1], [0, 0]], np.float64),
    (np.diag([-0.3 + 2.0j, -1.0 + 0.0j]), np.complex128),
    (np.diag([-1.0, -2.0]).astype(complex), np.complex128),
])
def test_entries_dtype_follows_input(entries, dtype):
    assert GeneratorMatrix(entries, 1.0).entries.dtype == dtype


@pytest.mark.parametrize("g", [nonnormal4(), dirichlet_second_difference(48)],
                         ids=lambda g: g.label)
def test_real_evolution_matches_complex_route(g):
    """real arithmetic reproduces the flow of the complex-cast generator,
    relative to the normwise scale ||exp(sA)|| ||x|| of the product.  Times
    keep ||sA|| below ~3e3; beyond that both routes carry errors of order
    eps ||sA|| and agree only to that level."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    for s in (1e-3, 0.1, 0.3):
        flow = expm(s * g.entries.astype(complex))
        scale = np.linalg.norm(flow, 2) * np.linalg.norm(x)
        got = evolve_classical(g, s, x)
        assert np.linalg.norm(got - flow @ x) <= 1e-13 * scale


# composition law -------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(r=st.floats(min_value=0.0, max_value=2.0),
       q=st.floats(min_value=0.0, max_value=2.0),
       delta=st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_composition_law_property(r, q, delta):
    for g in (nilpotent2(), diag_decay(), diag_complex()):
        cs = conformable(g, delta)
        x = np.array([1.0, -0.7], dtype=complex)
        x = x / g.w_norm(x)
        assert delta_law_residual(cs, r, q, x) <= 1e-11


def test_order_one_law_is_classical():
    g = diag_decay()
    cs = conformable(g, 1.0)
    x = np.array([0.3, 0.9], dtype=complex)
    left = cs.evolve(1.7, x)
    right = evolve_classical(g, 1.7, x)
    assert np.allclose(left, right, rtol=1e-14)


# generator -------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("g", [nilpotent2(), diag_decay(), diag_complex()],
                         ids=lambda g: g.label)
def test_generator_quotient_recovers_matrix(g, delta):
    """extrapolated order-delta difference quotient equals A x."""
    cs = conformable(g, delta)
    order = Order(delta)
    t_seq = [order.psi_inv(0.5 * 2.0**-k) for k in range(8)]
    x = np.array([1.0, -1.0], dtype=complex)
    got = generator_delta_quotient(cs, x, t_seq)
    want = g.entries @ x
    assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


# orbit oracle ----------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.7])
def test_adaptive_orbit_matches_exponential(delta):
    """the rescaled-coefficient ODE orbit equals the clock-composed flow."""
    g = nonnormal4()
    x0 = np.array([1.0, -1.0, 0.5, 1.0], dtype=complex)
    order = Order(delta)
    orbit = solve_conformable_ode(g, Order(delta), x0, 2.0, n_out=9)
    for t, state in zip(orbit.times, orbit.states):
        want = evolve_classical(g, order.psi(float(t)), x0)
        err = np.linalg.norm(state - want) / max(np.linalg.norm(want), 1e-30)
        assert err <= 1e-6


def test_orbit_order_one_reduces_to_classical():
    g = diag_decay()
    x0 = np.array([1.0, 1.0], dtype=complex)
    orbit = solve_conformable_ode(g, Order(1.0), x0, 2.0,
                                  rtol=1e-10, atol=1e-13, n_out=5)
    for t, state in zip(orbit.times, orbit.states):
        want = expm(float(t) * g.entries) @ x0
        assert np.linalg.norm(state - want) <= 1e-8


def test_orbit_norms_recorded_and_decaying():
    g = diag_decay()
    x0 = np.array([1.0, 1.0], dtype=complex)
    orbit = solve_conformable_ode(g, Order(0.6), x0, 2.0, n_out=9)
    assert orbit.norms.shape == (9,)
    assert np.all(np.diff(orbit.norms) < 0)


def test_dormand_prince_tableau_transcription():
    """the (7, 7) tableau is consistent, first-same-as-last and fifth order."""
    assert np.array_equal(_DP_A, np.tril(_DP_A, -1))
    assert np.allclose(_DP_A.sum(axis=1), _DP_C, rtol=0.0, atol=1e-15)
    assert abs(_DP_B5.sum() - 1.0) <= 1e-15
    assert abs(_DP_B4.sum() - 1.0) <= 1e-15
    assert np.array_equal(_DP_A[6], _DP_B5)
    for q in (1, 2, 3, 4):
        assert abs(_DP_B5 @ _DP_C ** q - 1.0 / (q + 1)) <= 1e-15


def test_complex_generator_orbit_matches_closed_form():
    """complex entries take the complex path: exp(psi(t) lam) x0."""
    g = diag_complex()
    lam = np.diag(g.entries)
    x0 = np.array([1.0, -1.0])
    order = Order(0.5)
    orbit = solve_conformable_ode(g, order, x0, 2.0, n_out=9)
    for t, state in zip(orbit.times, orbit.states):
        want = np.exp(order.psi(float(t)) * lam) * x0
        assert np.linalg.norm(state - want) / np.linalg.norm(want) <= 1e-8


def test_complex_initial_state_takes_complex_path(monkeypatch):
    """a real generator with a complex x0 steps in complex arithmetic."""
    dtypes = []

    def spy(rhs, t, x, *args):
        dtypes.append(x.dtype)
        return _rk45_advance(rhs, t, x, *args)

    monkeypatch.setattr(semigroup, "_rk45_advance", spy)
    g = nonnormal4()
    x0 = np.array([1.0 + 0.5j, -1.0, 0.5 - 1.0j, 1.0j])
    order = Order(0.4)
    orbit = solve_conformable_ode(g, order, x0, 2.0, n_out=9)
    assert dtypes and all(dt == np.complex128 for dt in dtypes)
    for t, state in zip(orbit.times, orbit.states):
        want = evolve_classical(g, order.psi(float(t)), x0)
        assert np.linalg.norm(state - want) / np.linalg.norm(want) <= 1e-6


def test_orbit_error_follows_rtol():
    """a stepper that ignored its error estimate would not gain 100x."""
    assert _orbit_gap(0.4, rtol=1e-7) >= 100.0 * _orbit_gap(0.4, rtol=1e-10)


def test_non_finite_rhs_ends_in_step_underflow():
    def blow_up(t, x):
        return np.full_like(x, np.inf)

    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="step size underflow"):
        _rk45_advance(blow_up, 0.1, np.ones(4), 1.0, 0.01, 1e-9, 1e-12)


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(semigroup, "_RK45_MAX_STEPS", 10)
    with pytest.raises(FloatingPointError, match="step budget exhausted"):
        solve_conformable_ode(nonnormal4(), Order(0.4),
                              np.array([1.0, -1.0, 0.5, 1.0]), 2.0)


def counting_rhs(monkeypatch):
    """Patch the orbit's stepper to count rhs calls; returns the counter,
    a one-item list."""
    calls = [0]

    def counting(rhs, *args):
        def counted(t, x):
            calls[0] += 1
            return rhs(t, x)
        return _rk45_advance(counted, *args)

    monkeypatch.setattr(semigroup, "_rk45_advance", counting)
    return calls


def test_step_is_carried_across_output_times(monkeypatch):
    """each of the 180 output times added between 21 and 201 outputs costs
    at most 7 rhs calls: the step carries on (about 6 a time) instead of
    restarting at interval / 100 (about 24 a time)."""
    calls = counting_rhs(monkeypatch)
    x0 = np.array([1.0, -1.0, 0.5, 1.0])
    cost = {}
    for n_out in (21, 201):
        calls[0] = 0
        solve_conformable_ode(nonnormal4(), Order(0.4), x0, 2.0, n_out=n_out)
        cost[n_out] = calls[0]
    assert cost[201] - cost[21] <= 7 * 180


@pytest.mark.parametrize("delta", [0.02, 0.4, 1.0])
def test_orbit_is_clock_free(monkeypatch, delta):
    """the orbit consults neither the flow it is checked against nor the
    clock: with both made to raise, it still runs for a real and a complex
    x0 and for a complex generator, and still matches the flow (to within
    a hundred times atol where the flow has decayed below it)"""
    cases = [(nonnormal4(), np.array([1.0, -1.0, 0.5, 1.0])),
             (nonnormal4(), np.array([1.0 + 0.5j, -1.0, 0.5 - 1.0j, 1.0j])),
             (diag_complex(), np.array([1.0, -1.0]))]
    order = Order(delta)
    times = np.linspace(0.0, 2.0, 9)
    want = [conformable(g, delta).evolve(times, x0) for g, x0 in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the orbit consulted the flow or the clock")

    for owner, name in ((semigroup, "evolve_classical"),
                        (semigroup, "_advance"), (semigroup, "expm"),
                        (Order, "psi"), (Order, "psi_inv")):
        monkeypatch.setattr(owner, name, forbidden)
    got = [solve_conformable_ode(g, order, x0, 2.0, n_out=9)
           for g, x0 in cases]
    monkeypatch.undo()
    for orbit, flows in zip(got, want):
        np.testing.assert_array_equal(orbit.times, times)
        for state, exact in zip(orbit.states, flows):
            assert (np.linalg.norm(state - exact)
                    <= 1e-6 * np.linalg.norm(exact) + 1e-10)


def test_orbit_at_the_order_floor(monkeypatch):
    """at delta = 0.02 the orbit starts from x0 at ln t ~ -2217 and crosses
    the decades below the first output time in a few hundred steps"""
    calls = counting_rhs(monkeypatch)
    assert _orbit_gap(0.02) <= 1e-8
    assert calls[0] <= 3000


@pytest.mark.parametrize("delta", [0.02, 1.0])
def test_zero_generator_orbit_stays_at_x0(delta):
    """a zero A moves nothing: every output time lies below the start"""
    g = GeneratorMatrix(np.zeros((3, 3)), 1.0, "zero")
    x0 = np.array([1.0, -2.0, 0.5j])
    orbit = solve_conformable_ode(g, Order(delta), x0, 2.0, n_out=9)
    for state in orbit.states:
        np.testing.assert_array_equal(state, x0)


def test_overflowing_orbit_names_t_in_its_error():
    """diag(712, -1) leaves double range at t = ln(max float) / 712 ~ 0.997
    at delta = 1: the orbit ends in step-size underflow, and the message
    names a t in (0, 2], not the stepper's ln t, which is negative there"""
    g = GeneratorMatrix(np.diag([712.0, -1.0]), 1.0, "overflow")
    with pytest.raises(FloatingPointError,
                       match="step size underflow") as info:
        solve_conformable_ode(g, Order(1.0), np.array([1.0, 1.0]), 2.0)
    t = float(str(info.value).rsplit("t=", 1)[1])
    assert 0.0 < t <= 2.0


# continuity and contraction ----------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_strong_continuity_check(delta):
    g = diag_decay()
    cs = conformable(g, delta)
    x = (g.entries @ np.array([1.0, 1.0])).astype(complex)
    residual, params = strong_continuity_check(cs, x)
    assert params["decreasing"]
    assert residual <= 0.1
    assert residual == pytest.approx(
        abs(params["slope"] - params["generator_norm"]) / params["generator_norm"])


def test_dissipativity_margin_dirichlet():
    g = dirichlet_second_difference(128)
    assert dissipativity_margin(g) <= 1e-12


# the spectral battery against its dense oracles, at n <= 256 -------------------

EPS = np.finfo(float).eps
ORACLE_NS = [32, 64, 128, 256]


def sine_eigenpairs(n):
    """(lam, V, d) of the clamped second difference: the closed form at
    a = 1, b = c = 0, whose similarity d is all ones"""
    spectrum, vecs, scale = _toeplitz_eigenpairs(1.0, 0.0, 0.0, n)
    assert np.all(scale == 1.0)
    return spectrum, vecs, scale


def top_eigenvalue(n):
    h = 1.0 / (n + 1)
    return -(4.0 / h ** 2) * math.sin(math.pi * h / 2.0) ** 2


@pytest.mark.parametrize("n", [2, 3, *ORACLE_NS, 512])
def test_dirichlet_eigenpairs_are_checked_at_rounding(n):
    g = dirichlet_second_difference(n)
    assert g.spectrum.shape == (n,)
    assert np.array_equal(g.spectrum, sine_eigenpairs(n)[0])
    assert g.spectral_defect <= EPS * (n + 1)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_closed_form_flow_matches_plain_expm(n):
    """V exp(s diag(lam)) V^T is the dense flow entry by entry, within
    32 eps (n+1)^2, at small steps and at the contraction grid's clocks;
    so is evolve_classical on the same pairs built with eigenbasis_flow.
    The Laplacian itself keeps the dense flow."""
    g = dirichlet_second_difference(n)
    assert g.certified and not g.eigenbasis_flow
    spectrum, vecs, scale = sine_eigenpairs(n)
    flowing = GeneratorMatrix(g.entries, g.weight, g.label,
                              (spectrum, vecs, scale), eigenbasis_flow=True)
    steps = [1e-4, 0.01, 0.5] + [Order(d).psi(t) for d in (0.5, 1.0)
                                 for t in (0.1, 1.0, 5.0)]
    for s in steps:
        dense = expm(s * g.entries)
        closed = (vecs * np.exp(s * spectrum)) @ vecs.T
        for flow in (closed, evolve_classical(flowing, s, np.eye(n))):
            gap = np.max(np.abs(flow - dense))
            assert gap <= 32.0 * EPS * (n + 1) ** 2, (s, gap)
        eye = np.eye(n, dtype=complex)
        assert np.array_equal(evolve_classical(g, s, eye),
                              expm(s * g.entries) @ eye)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_resolvent_norms_match_inverse_and_svd(n):
    """the closed-form resolvent norm against inv plus SVD, within eps times
    the condition number of lam I - A"""
    g = dirichlet_second_difference(n)
    spectrum = g.spectrum
    for lam in (0.1, 0.5, 1.0, 2.0):
        _, params = resolvent_bound_check(g, lam)
        dense = np.linalg.norm(np.linalg.inv(lam * np.eye(n) - g.entries), 2)
        cond = (lam - spectrum.min()) / (lam - spectrum.max())
        assert lam * dense - 1.0 == pytest.approx(
            params["norm_excess"], abs=EPS * cond * lam * dense)


@pytest.mark.parametrize("n", ORACLE_NS)
def test_dirichlet_margin_and_flow_norms_match_closed_forms(n):
    """the top eigenvalue of the clamped second difference is
    -(4/h^2) sin^2(pi h/2); the Hermitian-part margin, by bisection on the
    band, meets it within 1e-12 relative (measured 8e-15 to 2.7e-13 at
    n = 32 to 256), and both
    checks record it as their margin.  The flow is normal, so its norm at
    time t is exp(psi(t) times that eigenvalue)."""
    g = dirichlet_second_difference(n)
    top = top_eigenvalue(n)
    assert dissipativity_margin(g) == pytest.approx(top, rel=1e-12)
    _, resolvent = resolvent_bound_check(g, 1.0)
    assert resolvent["margin"] == pytest.approx(top, rel=1e-13)
    t_grid = (0.1, 1.0, 5.0)
    for delta in (0.5, 1.0):
        order = Order(delta)
        residual, params = contraction_check(ConformableSemigroup(g, order),
                                             t_grid)
        assert params["margin"] == resolvent["margin"]
        for t in t_grid:
            assert params[f"t={t}"] == pytest.approx(
                math.exp(order.psi(t) * top), rel=1e-13)
        assert residual == max(params[f"t={t}"] for t in t_grid) - 1.0


def perturbed(g, part):
    """g with one entry of its entries, eigenvalues or eigenvectors moved by
    1e-6 relative"""
    entries = g.entries.copy()
    spectrum, vecs, scale = sine_eigenpairs(g.dim)
    vecs = vecs.copy()  # the cached basis is read-only
    target = {"entries": entries, "eigenvalue": spectrum,
              "eigenvector": vecs}[part]
    index = (3,) * target.ndim
    target[index] *= 1.0 + 1e-6
    return GeneratorMatrix(entries, g.weight, g.label, (spectrum, vecs, scale))


@pytest.mark.parametrize("part", ["entries", "eigenvalue", "eigenvector"])
@pytest.mark.parametrize("n", [32, 256])
def test_mismatched_eigenpairs_fail_both_checks(n, part):
    g = perturbed(dirichlet_second_difference(n), part)
    assert g.spectral_defect > 100.0 * EPS * (n + 1)
    residual, _ = resolvent_bound_check(g, 0.5)
    assert not residual <= TOLERANCE_DEFAULTS["resolvent_slack"]
    residual, _ = contraction_check(conformable(g, 0.5), (0.1, 1.0, 5.0))
    assert not residual <= TOLERANCE_DEFAULTS["contraction_slack"]


def test_checks_need_eigenpairs():
    g = GeneratorMatrix(dirichlet_second_difference(8).entries, 1.0)
    assert g.spectrum is None and g.spectral_defect is None
    with pytest.raises(ValueError, match="eigenpairs"):
        resolvent_bound_check(g, 1.0)
    with pytest.raises(ValueError, match="eigenpairs"):
        contraction_check(conformable(g, 0.5), (1.0,))


def test_checks_refuse_a_non_dissipative_spectrum():
    g = GeneratorMatrix(np.diag([1.0, -1.0]), 1.0, "saddle",
                        (np.array([1.0, -1.0]), np.eye(2), np.ones(2)))
    assert g.spectral_defect == 0.0
    with pytest.raises(ValueError, match="not dissipative"):
        resolvent_bound_check(g, 1.0)
    with pytest.raises(ValueError, match="not dissipative"):
        contraction_check(conformable(g, 0.5), (1.0,))


@pytest.mark.parametrize("eigenpairs, error", [
    ((np.array([-1.0]), np.eye(2), np.ones(2)), ValueError),
    ((np.array([-1.0, -2.0]), np.eye(3), np.ones(2)), ValueError),
    ((np.array([-1.0, -2.0 + 0j]), np.eye(2), np.ones(2)), ValueError),
    ((np.array([-1.0, -2.0]), np.eye(2, dtype=complex), np.ones(2)),
     ValueError),
    ((np.array([-1.0, math.nan]), np.eye(2), np.ones(2)), FloatingPointError),
    # the similarity is not optional
    ((np.array([-1.0, -2.0]), np.eye(2)), ValueError),
])
def test_eigenpairs_are_validated(eigenpairs, error):
    with pytest.raises(error):
        GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "", eigenpairs)


def test_eigenpairs_need_a_tridiagonal_generator():
    """pairs on a pentadiagonal generator raise, even exact ones: the
    spectral defect and the resolvent products read three diagonals"""
    lap = dirichlet_second_difference(8)
    entries = lap.entries + lap.entries @ lap.entries
    spectrum = lap.spectrum + lap.spectrum ** 2
    with pytest.raises(ValueError, match="tridiagonal"):
        GeneratorMatrix(entries, lap.weight, "pentadiagonal",
                        (spectrum, lap.eigvecs, lap.similarity))
    assert GeneratorMatrix(entries, lap.weight).spectrum is None


@pytest.mark.parametrize("weight", [0.0, -0.5, math.inf, math.nan])
def test_weight_must_be_finite_and_positive(weight):
    with pytest.raises(ValueError):
        GeneratorMatrix(np.eye(2), weight)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
def test_resolvent_bound(lam):
    g = dirichlet_second_difference(128)
    residual, params = resolvent_bound_check(g, lam)
    assert residual <= TOLERANCE_DEFAULTS["resolvent_slack"], params


def test_resolvent_probes_match_one_by_one_products():
    """the block of probes gives the lower excess of one real product per
    probe, and bounds the excess of the complex probes u + iv that
    consecutive draws form: for a real A, ||(lam - A)(u + iv)||^2 is
    ||(lam - A)u||^2 + ||(lam - A)v||^2.  The four lowest sine modes join
    the seeded draws."""
    g = dirichlet_second_difference(32)
    lam = 0.5
    shifted = lam * np.eye(g.dim) - g.entries

    def excess(x):
        rhs = lam * g.w_norm(x)
        return (rhs - g.w_norm(shifted @ x)) / rhs

    rng = np.random.default_rng(4)
    random_excess = complex_excess = -np.inf
    for _ in range(100):
        u, v = rng.standard_normal(g.dim), rng.standard_normal(g.dim)
        random_excess = max(random_excess, excess(u), excess(v))
        complex_excess = max(complex_excess, excess(u + 1j * v))
    modes = sine_eigenpairs(g.dim)[1][:, :4]
    want = max(random_excess, *(excess(x) for x in modes.T))
    got = resolvent_bound_check(g, lam, seed=4)[1]["lower_excess"]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert complex_excess <= got


@pytest.mark.parametrize("n", [32, 128, 512])
@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
def test_resolvent_lower_excess_is_tight_at_the_first_mode(n, lam):
    """the first sine vector gives ||(lam - A) v|| = (lam - lam_1) ||v||, so
    the pointwise excess reads lam_1 / lam (about -98.7 at lam = 0.1), far
    above what the seeded draws alone read"""
    g = dirichlet_second_difference(n)
    _, params = resolvent_bound_check(g, lam)
    assert params["lower_excess"] == pytest.approx(top_eigenvalue(n) / lam,
                                                   rel=1e-9)
    assert params["lower_excess"] > -100.0


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_contraction_bound(delta):
    g = dirichlet_second_difference(128)
    cs = conformable(g, delta)
    residual, params = contraction_check(cs, (0.1, 1.0, 5.0))
    assert residual <= TOLERANCE_DEFAULTS["contraction_slack"], params
