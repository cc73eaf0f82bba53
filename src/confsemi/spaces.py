"""Weighted Lebesgue/Sobolev norms and the two unitary changes of variable.

Functions on (0,T) are measured against the weight t**(delta-1) dt.  The time
isometry turns that weighted norm into a plain Lebesgue norm on (0, psi(T))
by the substitution s = t**delta / delta; the spatial unitary does the same
on (0,1) with the stretch xi = x**delta plus the amplitude factor
delta**(-1/2).  Transported weights carry a half-line weight through the
spatial substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .calculus import FunctionHandle, WeightedQuadrature, pow_arr
from .clock import Clock, Order

__all__ = [
    "SpaceSpec",
    "TimeIsometry",
    "SpatialUnitary",
    "WeightSpec",
    "lp_delta_norm",
    "inner_product_2delta",
    "time_isometry_apply",
    "spatial_unitary_apply",
    "sobolev_norm",
    "transported_weight",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Weighted space parameters: order, exponent p >= 1, interval (0, T)."""

    delta: Order
    p: float
    horizon: float  # T; the interval is (0, T)

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class TimeIsometry:
    """Substitution map onto (0, psi(T)) that preserves the weighted norm."""

    source: SpaceSpec

    @property
    def delta(self) -> Order:
        return self.source.delta

    def target_end(self) -> float:
        return Clock(self.delta).psi(self.source.horizon)


@dataclass(frozen=True)
class SpatialUnitary:
    """Amplitude-corrected stretch on (0,1): scaling by delta**(-1/2)."""

    delta: Order


@dataclass(frozen=True)
class WeightSpec:
    """A positive weight on the half-line together with its stretch order."""

    alpha: Order
    rho: FunctionHandle
    label: str = ""


def _check_rule(spec: SpaceSpec, quad: WeightedQuadrature) -> None:
    if quad.delta != spec.delta:
        raise ValueError("quadrature order differs from the space order")
    a, b = quad.interval
    if a != 0.0 or abs(b - spec.horizon) > 1e-12 * (1 + abs(b)):
        raise ValueError(
            f"quadrature interval {quad.interval} does not match (0, {spec.horizon})")


def lp_delta_norm(f: FunctionHandle, spec: SpaceSpec,
                  quad: WeightedQuadrature) -> float:
    """Weighted p-norm (integral of |f|**p against t**(delta-1) dt)**(1/p)."""
    _check_rule(spec, quad)
    vals = np.abs(np.asarray(f.evaluator(quad.t_nodes())))
    total = float(np.sum(quad.weights * vals ** spec.p))
    if not np.isfinite(total):
        raise FloatingPointError("non-finite integrand sample in norm")
    return total ** (1.0 / spec.p)


def inner_product_2delta(f: FunctionHandle, g: FunctionHandle, spec: SpaceSpec,
                         quad: WeightedQuadrature) -> complex:
    """Sesquilinear weighted pairing; second argument is conjugated."""
    if spec.p != 2:
        raise ValueError("inner product is defined on the p=2 space")
    _check_rule(spec, quad)
    t = quad.t_nodes()
    fv = np.asarray(f.evaluator(t))
    gv = np.asarray(g.evaluator(t))
    total = complex(np.sum(quad.weights * fv * np.conjugate(gv)))
    if not np.isfinite(total.real) or not np.isfinite(total.imag):
        raise FloatingPointError("non-finite integrand sample in pairing")
    return total


def time_isometry_apply(iso: TimeIsometry, f: FunctionHandle) -> FunctionHandle:
    """Return s -> f((delta*s)**(1/delta)) on (0, psi(T))."""
    d = iso.delta.delta
    end = iso.target_end()

    def ev(s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr < -1e-15) or np.any(arr > end * (1 + 1e-12) + 1e-15):
            raise ValueError(f"evaluation outside (0, {end})")
        return f.evaluator(pow_arr(d * arr, 1.0 / d))

    deriv = None
    if f.classical_derivative is not None:
        def deriv(s):  # chain rule through the inverse substitution
            arr = np.asarray(s, dtype=float)
            t = pow_arr(d * arr, 1.0 / d)
            return f.classical_derivative(t) * pow_arr(d * arr, 1.0 / d - 1.0)

    return FunctionHandle(evaluator=ev, classical_derivative=deriv)


def spatial_unitary_apply(u: SpatialUnitary, f: FunctionHandle,
                          direction: Literal["forward", "inverse"]) -> FunctionHandle:
    """Forward: xi -> delta**(-1/2) f(xi**(1/delta)); inverse undoes it."""
    d = u.delta.delta
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


def sobolev_norm(f: FunctionHandle, m: int, spec: SpaceSpec,
                 quad: WeightedQuadrature) -> float:
    """(sum over k <= m of the weighted p-norm**p of the k-fold order-delta
    derivative)**(1/p), for m in {0, 1, 2}."""
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1 or 2, got {m}")
    if m >= 1 and f.classical_derivative is None:
        raise ValueError("m >= 1 needs classical_derivative")
    if m >= 2 and f.second_derivative is None:
        raise ValueError("m = 2 needs second_derivative")
    _check_rule(spec, quad)
    d = spec.delta.delta
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
        total += float(np.sum(quad.weights * np.abs(vals) ** spec.p))
    return total ** (1.0 / spec.p)


def transported_weight(w: WeightSpec) -> FunctionHandle:
    """Carry the weight through the spatial stretch: xi -> rho((alpha*xi)**(1/alpha))."""
    a = w.alpha.delta

    def ev(xi):
        arr = np.asarray(xi, dtype=float)
        return w.rho.evaluator(pow_arr(a * arr, 1.0 / a))

    return FunctionHandle(evaluator=ev)
