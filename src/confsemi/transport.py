"""Closed-form transport model on the half-line.

An `Order` alpha, its clock applied to space, is the stretch
psi(x) = x**alpha / alpha.  It turns the flow x -> f(psi_inv(psi(x) + t))
into a plain shift: substituting xi = psi(x) (`spaces.pullback`) conjugates
the stretched flow to translation, and the same map carries a weight on the
half-line into the stretched variable.  The order is all that a function
here reads of the model.  All operators are symbolic compositions of
closed forms; nothing is discretized, so identities hold to rounding.
"""

from __future__ import annotations

import numpy as np

from .calculus import FunctionHandle, conf_derivative
from .clock import Order, pow_arr
from .spaces import pullback

__all__ = [
    "apply_S_alpha",
    "apply_W",
    "transport_conjugacy_residual",
    "transport_pde_residual",
    "weight_criterion_probe",
]


def apply_S_alpha(order: Order, f: FunctionHandle, t: float) -> FunctionHandle:
    """Flow along the stretched shift: x -> f(psi_inv(psi(x) + t))."""
    if t < 0.0:
        raise ValueError(f"flow time must be nonnegative, got {t}")
    a = order.delta

    def ev(x):
        return f.evaluator(order.psi_inv(order.psi(np.asarray(x, dtype=float)) + t))

    deriv = None
    if f.classical_derivative is not None:
        def deriv(x):  # chain rule through psi_inv(psi(x) + t)
            arr = np.asarray(x, dtype=float)
            xi = order.psi(arr) + t
            inner = pow_arr(a * xi, 1.0 / a - 1.0) * pow_arr(arr, a - 1.0)
            return f.classical_derivative(order.psi_inv(xi)) * inner

    return FunctionHandle(evaluator=ev, classical_derivative=deriv)


def apply_W(g: FunctionHandle, t: float) -> FunctionHandle:
    """Plain shift xi -> g(xi + t)."""
    if t < 0.0:
        raise ValueError(f"shift must be nonnegative, got {t}")

    def ev(xi):
        return g.evaluator(np.asarray(xi, dtype=float) + t)

    return FunctionHandle(evaluator=ev)


def transport_conjugacy_residual(order: Order, f: FunctionHandle, t: float,
                                 xi_samples) -> float:
    """Pointwise defect of (stretch then flow) versus (shift then stretch).

    Both sides are the same composition through different parenthesizations,
    so the residual is pure rounding.
    """
    xi = np.asarray(xi_samples, dtype=float)
    left = pullback(order, apply_S_alpha(order, f, t)).evaluator(xi)
    right = apply_W(pullback(order, f), t).evaluator(xi)
    return float(np.max(np.abs(np.asarray(left) - np.asarray(right))))


def transport_pde_residual(order: Order, f: FunctionHandle, t: float,
                           x_samples) -> float:
    """Defect of the evolution equation along the closed-form flow.

    Time derivative by central difference with step 1e-5, space side by
    the order-alpha derivative of the flowed profile with its analytic
    chain-rule derivative (so f must declare its classical derivative).
    """
    dt = 1e-5
    if t <= dt:
        raise ValueError(f"need t > dt, got t={t}")
    x = np.asarray(x_samples, dtype=float)
    ahead = apply_S_alpha(order, f, t + dt).evaluator(x)
    behind = apply_S_alpha(order, f, t - dt).evaluator(x)
    time_side = (np.asarray(ahead) - np.asarray(behind)) / (2.0 * dt)
    space_side = conf_derivative(apply_S_alpha(order, f, t), order, x)
    return float(np.max(np.abs(time_side - space_side)))


# a window infimum at or below this counts as decayed
_DECAY_THRESHOLD = 1e-2
_SAMPLES_PER_WINDOW = 200


def weight_criterion_probe(order: Order, rho: FunctionHandle,
                           window_ends) -> dict:
    """Window-infimum probe of the weight rho carried by the clock (HEURISTIC).

    Samples the stretched weight over dyadic windows [E, 2E] and returns
    params saying whether the infima decrease toward zero.  This exposes
    the decay mechanism that admissible shift weights need; it certifies
    nothing and is recorded informationally.
    """
    ends = list(window_ends)
    if len(ends) < 3:
        raise ValueError("need at least 3 windows")
    if any(e2 <= e1 for e1, e2 in zip(ends, ends[1:])):
        raise ValueError("window ends must be increasing")
    rho_t = pullback(order, rho)
    infima = []
    for end in ends:
        grid = np.linspace(end, 2.0 * end, _SAMPLES_PER_WINDOW)
        infima.append(float(np.min(np.asarray(rho_t.evaluator(grid)).real)))
    decreasing = all(b < a for a, b in zip(infima, infima[1:]))
    satisfied = decreasing and infima[-1] <= _DECAY_THRESHOLD
    return {
        "label": "HEURISTIC",
        "status": "criterion_satisfied" if satisfied else "criterion_not_satisfied",
        "alpha": order.delta,
        "window_ends": [float(e) for e in ends],
        "infima": infima,
        "decay_threshold": _DECAY_THRESHOLD,
    }
