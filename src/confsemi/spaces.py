"""Weighted Lebesgue/Sobolev norms and the two unitary changes of variable.

Functions on (0,T) are measured against the weight t**(delta-1) dt.  A
norm takes the exponent p and a `WeightedQuadrature` built on (0, T): the
rule carries the order delta and the interval, so nothing else restates
them.  The time isometry, `pullback`, turns the weighted norm into a plain
Lebesgue norm on (0, psi(T)) by the clock substitution s = psi(t); the
transport model reuses it as its straightening map.  The spatial unitary
does the same on (0,1) with the stretch xi = x**delta plus the amplitude
factor delta**(-1/2).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .calculus import (FunctionHandle, WeightedQuadrature,
                       conf_derivative_iterated)
from .clock import Order, pow_arr

__all__ = [
    "lp_delta_norm",
    "inner_product_2delta",
    "pullback",
    "spatial_unitary_apply",
    "sobolev_norm",
]


def _check_rule(p: float, quad: WeightedQuadrature) -> None:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if quad.interval[0] != 0.0:
        raise ValueError(
            f"quadrature interval {quad.interval} does not start at 0")


def lp_delta_norm(f: FunctionHandle, p: float,
                  quad: WeightedQuadrature):
    """Weighted p-norm (integral of |f|**p against t**(delta-1) dt)**(1/p).

    Reduces over the last axis: an evaluator returning a (k, m) stack at
    the rule's m nodes gives k norms.  Each root is taken as a Python float
    power, so a stack equals its rows bit for bit.
    """
    _check_rule(p, quad)
    vals = np.abs(np.asarray(f.evaluator(quad.t_nodes())))
    total = np.sum(quad.weights * vals ** p, axis=-1)
    if not np.all(np.isfinite(total)):
        raise FloatingPointError("non-finite integrand sample in norm")
    if total.ndim == 0:
        return float(total) ** (1.0 / p)
    return np.array([row ** (1.0 / p) for row in total.ravel().tolist()]
                    ).reshape(total.shape)


def inner_product_2delta(f: FunctionHandle, g: FunctionHandle,
                         quad: WeightedQuadrature):
    """Sesquilinear weighted pairing of the p=2 space; second argument is
    conjugated.

    Reduces over the last axis like `lp_delta_norm`: one pairing gives a
    complex, and stacked evaluators give a complex array.
    """
    _check_rule(2.0, quad)
    t = quad.t_nodes()
    fv = np.asarray(f.evaluator(t))
    gv = np.asarray(g.evaluator(t))
    total = np.sum(quad.weights * fv * np.conjugate(gv), axis=-1)
    if not np.all(np.isfinite(total)):
        raise FloatingPointError("non-finite integrand sample in pairing")
    return total.astype(complex) if total.ndim else complex(total)


def pullback(order: Order, f: FunctionHandle) -> FunctionHandle:
    """Return s -> f(psi_inv(s)), f read in the clock's time s = psi(t)."""
    def ev(s):
        return f.evaluator(order.psi_inv(np.asarray(s, dtype=float)))

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
    _check_rule(p, quad)
    t = quad.t_nodes()
    layers = [np.asarray(f.evaluator(t))]
    layers += [conf_derivative_iterated(f, quad.delta, k, t)
               for k in range(1, m + 1)]
    total = 0.0
    for vals in layers:
        total += float(np.sum(quad.weights * np.abs(vals) ** p))
    return total ** (1.0 / p)
