"""Weighted Lebesgue/Sobolev norms and the two unitary changes of variable.

Functions on (0,T) are measured against the weight t**(delta-1) dt.  A
norm takes the exponent p and a `WeightedQuadrature` built on (0, T): the
rule carries the order delta and the interval, so nothing else restates
them.  The time isometry turns the weighted norm into a plain Lebesgue norm
on (0, psi(T)) by the clock substitution s = psi(t); the spatial unitary
does the same on (0,1) with the stretch xi = x**delta plus the amplitude
factor delta**(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .calculus import FunctionHandle, WeightedQuadrature
from .clock import Clock, Order, pow_arr

__all__ = [
    "WeightSpec",
    "lp_delta_norm",
    "inner_product_2delta",
    "time_isometry_apply",
    "spatial_unitary_apply",
    "sobolev_norm",
]


@dataclass(frozen=True)
class WeightSpec:
    """A positive weight on the half-line."""

    rho: FunctionHandle
    label: str = ""


def _check_rule(p: float, quad: WeightedQuadrature) -> None:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if quad.interval[0] != 0.0:
        raise ValueError(
            f"quadrature interval {quad.interval} does not start at 0")


def lp_delta_norm(f: FunctionHandle, p: float,
                  quad: WeightedQuadrature) -> float:
    """Weighted p-norm (integral of |f|**p against t**(delta-1) dt)**(1/p)."""
    _check_rule(p, quad)
    vals = np.abs(np.asarray(f.evaluator(quad.t_nodes())))
    total = float(np.sum(quad.weights * vals ** p))
    if not np.isfinite(total):
        raise FloatingPointError("non-finite integrand sample in norm")
    return total ** (1.0 / p)


def inner_product_2delta(f: FunctionHandle, g: FunctionHandle,
                         quad: WeightedQuadrature) -> complex:
    """Sesquilinear weighted pairing of the p=2 space; second argument is
    conjugated."""
    _check_rule(2.0, quad)
    t = quad.t_nodes()
    fv = np.asarray(f.evaluator(t))
    gv = np.asarray(g.evaluator(t))
    total = complex(np.sum(quad.weights * fv * np.conjugate(gv)))
    if not np.isfinite(total.real) or not np.isfinite(total.imag):
        raise FloatingPointError("non-finite integrand sample in pairing")
    return total


def time_isometry_apply(clock: Clock, horizon: float,
                        f: FunctionHandle) -> FunctionHandle:
    """Return s -> f(psi_inv(s)) on (0, psi(horizon))."""
    end = clock.psi(horizon)

    def ev(s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr > end * (1 + 1e-12) + 1e-15):
            raise ValueError(f"evaluation outside (0, {end})")
        return f.evaluator(clock.psi_inv(arr))

    return FunctionHandle(evaluator=ev)


def spatial_unitary_apply(order: Order, f: FunctionHandle,
                          direction: Literal["forward", "inverse"]) -> FunctionHandle:
    """Forward: xi -> delta**(-1/2) f(xi**(1/delta)); inverse undoes it."""
    d = order.delta
    root = d ** 0.5
    if direction == "forward":
        def ev(xi):
            arr = np.asarray(xi, dtype=float)
            _check_unit_interval(arr)
            return f.evaluator(pow_arr(arr, 1.0 / d)) / root
    elif direction == "inverse":
        def ev(x):
            arr = np.asarray(x, dtype=float)
            _check_unit_interval(arr)
            return f.evaluator(pow_arr(arr, d)) * root
    else:
        raise ValueError(f"direction must be forward or inverse, got {direction}")
    return FunctionHandle(evaluator=ev)


def _check_unit_interval(arr: np.ndarray) -> None:
    if np.any(arr < -1e-15) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("evaluation outside (0, 1)")


def sobolev_norm(f: FunctionHandle, m: int, p: float,
                 quad: WeightedQuadrature) -> float:
    """(sum over k <= m of the weighted p-norm**p of the k-fold order-delta
    derivative)**(1/p), for m in {0, 1, 2}."""
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1 or 2, got {m}")
    if m >= 1 and f.classical_derivative is None:
        raise ValueError("m >= 1 needs classical_derivative")
    if m >= 2 and f.second_derivative is None:
        raise ValueError("m = 2 needs second_derivative")
    _check_rule(p, quad)
    d = quad.delta.delta
    t = quad.t_nodes()
    layers = [np.asarray(f.evaluator(t))]
    if m >= 1:
        layers.append(pow_arr(t, 1.0 - d) * np.asarray(f.classical_derivative(t)))
    if m >= 2:
        layers.append((1.0 - d) * pow_arr(t, 1.0 - 2.0 * d)
                      * np.asarray(f.classical_derivative(t))
                      + pow_arr(t, 2.0 - 2.0 * d)
                      * np.asarray(f.second_derivative(t)))
    total = 0.0
    for vals in layers:
        total += float(np.sum(quad.weights * np.abs(vals) ** p))
    return total ** (1.0 / p)
