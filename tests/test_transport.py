"""Flow along the stretched axis and its straightening conjugacy."""

import numpy as np
import pytest

from confsemi import (FunctionHandle, Order, apply_S_alpha, pullback,
                      apply_W, make_weight, transport_conjugacy_residual,
                      transport_pde_residual, weight_criterion_probe)

SIN = FunctionHandle(np.sin, np.cos, lambda x: -np.sin(x))
EXPD = FunctionHandle(lambda x: np.exp(-x), lambda x: -np.exp(-x),
                      lambda x: np.exp(-x))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_flow_value_closed_form(alpha):
    """the flow moves x to ((x^a + a t)^(1/a)) and drags values along."""
    c = Order(alpha)
    t = 0.8
    x = np.linspace(0.2, 2.0, 11)
    moved = apply_S_alpha(c, SIN, t)
    target = (x**alpha + alpha * t) ** (1.0 / alpha)
    assert np.allclose(moved(x), np.sin(target), rtol=1e-13)


def test_order_one_flow_is_plain_shift():
    c = Order(1.0)
    x = np.linspace(0.0, 2.0, 21)
    moved = apply_S_alpha(c, SIN, 0.8)
    assert np.allclose(moved(x), np.sin(x + 0.8), rtol=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_flow_composition_halves(alpha):
    """two half-steps equal one full step."""
    c = Order(alpha)
    t = 1.2
    x = np.linspace(0.1, 2.0, 17)
    once = apply_S_alpha(c, EXPD, t)
    twice = apply_S_alpha(c, apply_S_alpha(c, EXPD, t / 2.0), t / 2.0)
    assert np.allclose(once(x), twice(x), rtol=1e-12)


def test_straightening_roundtrip():
    # the clock's forward map undoes the straightening
    c = Order(0.5)
    fwd = pullback(c, SIN)
    x = np.linspace(0.05, 2.0, 19)
    assert np.allclose(fwd(c.psi(x)), SIN(x), rtol=1e-13)


def test_straightened_flow_is_translation():
    # Q turns the curved flow into the unit-speed shift W
    c = Order(0.4)
    t = 0.9
    xi = np.linspace(0.1, 2.5, 23)
    left = pullback(c, apply_S_alpha(c, SIN, t))
    right = apply_W(pullback(c, SIN), t)
    assert np.allclose(left(xi), right(xi), rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_conjugacy_residual_random_samples(alpha):
    c = Order(alpha)
    rng = np.random.default_rng(3)
    xi = 0.05 + 2.95 * rng.random(100)
    worst = max(transport_conjugacy_residual(c, SIN, t, xi) for t in (0.3, 1.0))
    assert worst <= 1e-12 * (1.0 + 1.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_pde_residual_on_smooth_solution(alpha):
    """the flowed profile solves the stretched-derivative transport equation."""
    c = Order(alpha)
    x = np.linspace(0.2, 2.0, 40)
    res = transport_pde_residual(c, SIN, 0.7, x)
    assert res <= 1e-6


def test_pde_residual_requires_derivative():
    c = Order(0.5)
    bare = FunctionHandle(np.sin)
    with pytest.raises(ValueError):
        transport_pde_residual(c, bare, 0.7, np.linspace(0.2, 1.0, 5))


def test_weight_probe_decay_weight_satisfies():
    params = weight_criterion_probe(
        Order(0.5), make_weight("exp_decay"), (0.5, 1.0, 2.0, 4.0, 8.0))
    assert params["label"] == "HEURISTIC"
    assert params["status"] == "criterion_satisfied"
    infima = params["infima"]
    assert all(b < a for a, b in zip(infima, infima[1:]))


def test_weight_probe_flat_weight_does_not_satisfy():
    # informational probe: never a gate (tests/test_suites.py checks that
    # its records pass), but the two weights must separate
    params = weight_criterion_probe(Order(0.5), make_weight("unit"),
                                    (0.5, 1.0, 2.0, 4.0, 8.0))
    assert params["status"] == "criterion_not_satisfied"


def test_weight_probe_deterministic():
    rho = make_weight("gaussian")
    a = weight_criterion_probe(Order(0.5), rho, (0.5, 1.0, 2.0))
    b = weight_criterion_probe(Order(0.5), rho, (0.5, 1.0, 2.0))
    assert a == b
