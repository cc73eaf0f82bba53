"""Matrix evolution, the composed-clock family, and its generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from confsemi import (Clock, ConformableSemigroup, GeneratorMatrix, Order,
                      contraction_check, delta_law_residual,
                      dirichlet_second_difference, dissipativity_margin,
                      evolve_classical, generator_delta_quotient,
                      resolvent_bound_check, solve_conformable_ode,
                      strong_continuity_fit, taylor_matrix_exp)
from confsemi.config import TOLERANCE_DEFAULTS


def nilpotent2():
    return GeneratorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2),
                           "nilpotent2")


def diag_decay():
    return GeneratorMatrix(np.diag([-1.0, -2.0]), np.ones(2), "diag_decay")


def diag_complex():
    return GeneratorMatrix(np.diag([-0.3 + 2.0j, -1.0 + 0.0j]), np.ones(2),
                           "diag_complex")


def nonnormal4():
    entries = np.array([[-1.0, 2.0, 0.0, 1.0],
                        [0.0, -0.5, 3.0, 0.0],
                        [0.0, 0.0, -2.0, 1.0],
                        [0.0, 0.0, 0.0, 0.3]])
    return GeneratorMatrix(entries, np.ones(4), "nonnormal4")


def conformable(g, delta):
    return ConformableSemigroup(g, Clock(Order(delta)))


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
    assert GeneratorMatrix(entries, np.ones(2)).entries.dtype == dtype


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
    clock = Clock(Order(delta))
    t_seq = [clock.psi_inv(0.5 * 2.0**-k) for k in range(8)]
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
    clock = Clock(Order(delta))
    orbit = solve_conformable_ode(g, Order(delta), x0, 2.0, n_out=9)
    for t, state in zip(orbit.times, orbit.states):
        want = evolve_classical(g, clock.psi(float(t)), x0)
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


# continuity and contraction ----------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_strong_continuity_fit(delta):
    g = diag_decay()
    cs = conformable(g, delta)
    x = (g.entries @ np.array([1.0, 1.0])).astype(complex)
    fit = strong_continuity_fit(cs, x)
    assert fit["decreasing"]
    assert fit["rel_dev"] <= 0.1


def test_dissipativity_margin_dirichlet():
    g = dirichlet_second_difference(128)
    assert dissipativity_margin(g) <= 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0])
def test_resolvent_bound(lam):
    g = dirichlet_second_difference(128)
    residual, params = resolvent_bound_check(g, lam)
    assert residual <= TOLERANCE_DEFAULTS["resolvent_slack"], params


def test_resolvent_probes_match_one_by_one_products():
    """the block of probes gives the lower excess of one product per probe."""
    g = dirichlet_second_difference(32)
    lam = 0.5
    shifted = lam * np.eye(g.dim) - g.entries
    rng = np.random.default_rng(4)
    want = -np.inf
    for _ in range(100):
        x = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
        rhs = lam * g.w_norm(x)
        want = max(want, (rhs - g.w_norm(shifted @ x)) / rhs)
    got = resolvent_bound_check(g, lam, seed=4)[1]["lower_excess"]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_contraction_bound(delta):
    g = dirichlet_second_difference(128)
    cs = conformable(g, delta)
    residual, params = contraction_check(cs, (0.1, 1.0, 5.0))
    assert residual <= TOLERANCE_DEFAULTS["contraction_slack"], params
