"""Weighted derivative and integral of order delta on the half-line.

The derivative of order delta in (0,1] is the local operator
D f(t) = t**(1-delta) * f'(t), equivalently the limit of the stretched
difference quotient (f(t + h*t**(1-delta)) - f(t)) / h.  The matching
integral pairs f against the weight t**(delta-1); it is always evaluated
through the substitution s = t**delta / delta, which removes the weight's
singularity at 0 exactly and leaves a plain integral in s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clock import Order, pow_arr

__all__ = [
    "FunctionHandle",
    "WeightedQuadrature",
    "ConvergenceError",
    "conf_derivative",
    "conf_derivative_limit",
    "conf_integral",
    "conf_derivative_iterated",
]


class ConvergenceError(RuntimeError):
    """Raised when an extrapolated difference-quotient sequence diverges."""


@dataclass(frozen=True)
class FunctionHandle:
    """A scalar function with optional analytic derivatives.

    The evaluator (and derivatives, when present) must accept a float or a
    numpy array and be re-entrant.  Values may be complex.
    """

    evaluator: Callable
    classical_derivative: Optional[Callable] = None
    second_derivative: Optional[Callable] = None

    def __call__(self, t):
        return self.evaluator(t)


@functools.cache
def _gauss_legendre(points: int) -> tuple:
    """leggauss(points) as read-only arrays, built once per point count."""
    rule = np.polynomial.legendre.leggauss(points)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@dataclass(frozen=True)
class WeightedQuadrature:
    """Composite Gauss-Legendre rule in the substituted variable s.

    Nodes and weights integrate ds over (psi(a), psi(b)); pairing them with
    f(psi_inv(s)) (`t_nodes`) integrates f against t**(delta-1) dt over (a, b).
    When the interval starts at 0, the first panel is subdivided
    geometrically toward s = 0: substituted profiles generically carry an
    s**(1/delta) cusp there that uniform panels cannot resolve.
    """

    GRADE_DEPTH = 12

    delta: Order
    interval: tuple
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, delta: Order, a: float, b: float, panels: int = 12,
              points_per_panel: int = 16) -> "WeightedQuadrature":
        if not (0.0 <= a < b):
            raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
        if panels < 1 or points_per_panel < 2:
            raise ValueError("panels >= 1 and points_per_panel >= 2 required")
        lo, hi = delta.psi(a), delta.psi(b)
        ref_x, ref_w = _gauss_legendre(points_per_panel)
        edges = np.linspace(lo, hi, panels + 1)
        if lo == 0.0:
            graded = edges[1] * 2.0 ** (-np.arange(cls.GRADE_DEPTH, -1, -1.0))
            edges = np.concatenate(([0.0], graded, edges[2:]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        nodes = (mids[:, None] + halves[:, None] * ref_x[None, :]).ravel()
        weights = (halves[:, None] * ref_w[None, :]).ravel()
        return cls(delta=delta, interval=(a, b), nodes=nodes, weights=weights)

    def t_nodes(self) -> np.ndarray:
        """Quadrature nodes mapped back to the original variable."""
        return self.delta.psi_inv(self.nodes)


def _weight(t, exponent: float, what: str):
    """t**exponent through pow_arr, for a float or an array t >= 0; a float
    gives a numpy float, which the caller's product keeps a scalar."""
    t = np.asarray(t, dtype=float)
    if t.min(initial=0.0) < 0.0:
        raise ValueError(f"{what} needs t >= 0, got {t.min()}")
    return pow_arr(t, exponent)


def conf_derivative(f: FunctionHandle, delta: Order, t):
    """t**(1-delta) * f'(t) from the declared analytic derivative, at a
    float or elementwise on an array t >= 0."""
    if f.classical_derivative is None:
        raise ValueError("handle declares no classical_derivative")
    return (_weight(t, 1.0 - delta.delta, f"derivative of order {delta.delta}")
            * f.classical_derivative(t))


# smallest step of the limit quotient's halving sequence
_LIMIT_H_MIN = 1e-6


def conf_derivative_limit(f: FunctionHandle, delta: Order, t: float):
    """The defining stretched difference quotient, Richardson-extrapolated.

    Quotients are taken over h = h0 * 2**-k down to _LIMIT_H_MIN = 1e-6
    (h0 = 1e-2); a two-column Richardson step removes the leading O(h) error.
    Declared convergent when two successive extrapolants differ by < 1e-8
    relative.
    """
    if t <= 0.0:
        raise ValueError(f"limit quotient needs t > 0, got {t}")
    d = delta.delta
    stretch = float(pow_arr(t, 1.0 - d))
    f_t = f.evaluator(t)

    def quotient(h: float):
        return (f.evaluator(t + h * stretch) - f_t) / h

    h = 1e-2
    q_prev = quotient(h)
    extrapolants = []
    deltas = []
    while h >= _LIMIT_H_MIN:
        h /= 2.0
        q = quotient(h)
        r = 2.0 * q - q_prev  # cancels the O(h) term under halving
        if extrapolants:
            deltas.append(abs(r - extrapolants[-1]))
        extrapolants.append(r)
        if deltas and deltas[-1] < 1e-8 * (1.0 + abs(r)):
            return r
        q_prev = q
    # tolerate stopping at _LIMIT_H_MIN while improving; flag genuine divergence
    if len(deltas) >= 2 and deltas[-1] > deltas[-2]:
        table = ", ".join(f"{e:.6e}" for e in extrapolants[-4:])
        raise ConvergenceError(
            f"difference quotient diverged at t={t}, delta={d}; "
            f"last extrapolants [{table}], last deltas "
            f"{deltas[-2]:.3e} -> {deltas[-1]:.3e}")
    return extrapolants[-1]


def conf_integral(f: FunctionHandle, quad: WeightedQuadrature):
    """Integral of f against the weight xi**(delta-1) over the rule's
    interval, evaluated entirely in the substituted variable."""
    return complex(np.sum(quad.weights * np.asarray(f.evaluator(quad.t_nodes()))))


def conf_derivative_iterated(f: FunctionHandle, delta: Order, k: int, t):
    """k-fold application of the order-delta derivative, k in {1, 2}, at a
    float or elementwise on an array t >= 0.

    The k=2 case is expanded analytically by the product rule,
    (1-delta) t**(1-2 delta) f'(t) + t**(2-2 delta) f''(t),
    rather than nesting difference quotients.
    """
    if k not in (1, 2):
        raise ValueError(f"iterated derivative supports k in {{1, 2}}, got {k}")
    if k == 1:
        return conf_derivative(f, delta, t)
    if f.classical_derivative is None or f.second_derivative is None:
        raise ValueError("k=2 needs classical_derivative and second_derivative")
    d = delta.delta
    second = _weight(t, 2.0 - 2.0 * d, "iterated derivative") * f.second_derivative(t)
    if d == 1.0:  # the first term's factor 1 - delta is 0, so t = 0 gives f''(0)
        return second
    return ((1.0 - d) * _weight(t, 1.0 - 2.0 * d, "iterated derivative")
            * f.classical_derivative(t) + second)
