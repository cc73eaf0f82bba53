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
    numpy array of any shape, act elementwise and be re-entrant: the limit
    quotient evaluates a whole table of points in one call, and a stacked
    `WeightedQuadrature` passes its nodes with their leading axes.  Values
    may be complex.
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
    def build(cls, delta: Order, a: float, b, panels: int = 12,
              points_per_panel: int = 16) -> "WeightedQuadrature":
        """The rule on (a, b); an array b of right ends gives a stack of
        rules whose nodes and weights carry b's shape as leading axes.

        Each psi(b) is taken as a Python float, so a stacked rule equals its
        rows bit for bit.
        """
        ends = np.asarray(b, dtype=float)
        if not (0.0 <= a and np.all(a < ends)):
            raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
        if panels < 1 or points_per_panel < 2:
            raise ValueError("panels >= 1 and points_per_panel >= 2 required")
        lo = delta.psi(a)
        hi = np.array([delta.psi(end) for end in ends.ravel().tolist()]
                      ).reshape(ends.shape)
        ref_x, ref_w = _gauss_legendre(points_per_panel)
        edges = np.linspace(lo, hi, panels + 1, axis=-1)
        if lo == 0.0:
            graded = edges[..., 1:2] * 2.0 ** (-np.arange(cls.GRADE_DEPTH, -1, -1.0))
            edges = np.concatenate((edges[..., :1], graded, edges[..., 2:]),
                                   axis=-1)
        mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
        halves = 0.5 * np.diff(edges, axis=-1)
        nodes = (mids[..., None] + halves[..., None] * ref_x).reshape(
            ends.shape + (-1,))
        weights = (halves[..., None] * ref_w).reshape(ends.shape + (-1,))
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


def conf_derivative_limit(f: FunctionHandle, delta: Order, t):
    """The defining stretched difference quotient, Richardson-extrapolated,
    at a float or elementwise on an array t > 0.

    Quotients are taken over h = h0 * 2**-k down to _LIMIT_H_MIN = 1e-6
    (h0 = 1e-2, 15 steps); a two-column Richardson step removes the leading
    O(h) error.  f is evaluated once, at every t and all of its steps
    together.  Each t stops where two successive extrapolants differ by
    < 1e-8 relative; ConvergenceError names the first t whose sequence
    diverges instead.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0.0):
        raise ValueError(f"limit quotient needs t > 0, got {t}")
    d = delta.delta
    steps = [1e-2]
    while steps[-1] >= _LIMIT_H_MIN:
        steps.append(steps[-1] / 2.0)
    flat = ts.reshape(-1, 1)
    points = np.concatenate(
        (flat, flat + np.array(steps) * pow_arr(flat, 1.0 - d)), axis=1)
    values = np.broadcast_to(np.asarray(f.evaluator(points)), points.shape)
    rises = (values[:, 1:] - values[:, :1]).tolist()
    limits = [_richardson(rise, steps, t_k, d)
              for rise, t_k in zip(rises, flat[:, 0].tolist())]
    return np.array(limits).reshape(ts.shape)[()]


def _richardson(rises: list, steps: list, t: float, d: float):
    """The limit of one t's quotients rise / h under halving steps h, in
    Python scalars."""
    q_prev = rises[0] / steps[0]
    extrapolants = []
    deltas = []
    for rise, h in zip(rises[1:], steps[1:]):
        q = rise / h
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
    interval, evaluated entirely in the substituted variable.

    Reduces over the last axis: one rule gives a complex, and a stacked
    rule, or an evaluator returning a stack of rows, gives a complex array.
    """
    total = np.sum(quad.weights * np.asarray(f.evaluator(quad.t_nodes())),
                   axis=-1)
    return total.astype(complex) if total.ndim else complex(total)


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
