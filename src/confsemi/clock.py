"""Power-law time rescaling shared by every other module.

A clock of order delta maps conformable time t to classical semigroup time
s = t**delta / delta.  The map is a strictly increasing bijection of the
nonnegative half-line onto itself, with inverse t = (delta * s)**(1/delta).
Both maps take a float or a numpy array; this is the one place where either
formula is written down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Order", "Clock", "pow_pos", "pow_arr"]

# inputs more negative than this are rejected; anything in [-NEG_DUST, 0)
# is treated as floating-point dust from upstream subtraction and clamped to 0
NEG_DUST = 1e-15


def pow_pos(base: float, exponent: float) -> float:
    """base**exponent for base >= 0, via exp(exponent * log(base)).

    An explicit base == 0 branch returns 0, which avoids the pow-of-zero
    corner cases (0**negative, signed zeros) for small fractional exponents.
    Exponent 1 returns the base bitwise, so order-1 reductions are exact.
    """
    if base == 0.0:
        return 0.0
    if exponent == 1.0:
        return float(base)
    return math.exp(exponent * math.log(base))


def pow_arr(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise base**exponent for base >= 0 with an explicit 0 branch.

    Exponent 1 returns the base values bitwise (order-1 reductions exact)."""
    base = np.asarray(base, dtype=float)
    if exponent == 1.0:
        return base.copy()
    out = np.zeros_like(base)
    pos = base > 0.0
    out[pos] = np.exp(exponent * np.log(base[pos]))
    return out


@dataclass(frozen=True)
class Order:
    """Rescaling order delta, restricted to the interval (0, 1]."""

    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"order must lie in (0, 1], got {self.delta}")


def _clean_nonneg(value: float, what: str) -> float:
    if value < 0.0:
        if value >= -NEG_DUST:
            return 0.0
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def _clean_nonneg_arr(values: np.ndarray, what: str) -> np.ndarray:
    low = values.min(initial=0.0)  # one reduction: the maps sit in hot loops
    if low < 0.0:
        if low < -NEG_DUST:
            raise ValueError(f"{what} must be nonnegative, got {low}")
        return np.maximum(values, 0.0)
    return values


@dataclass(frozen=True)
class Clock:
    """The rescaling map of one fixed order and its inverse.

    A numpy array is mapped elementwise with `pow_arr`; anything else is
    taken as one float and mapped with `pow_pos`.
    """

    order: Order

    @property
    def delta(self) -> float:
        return self.order.delta

    def psi(self, t):
        """Forward map t -> t**delta / delta."""
        if isinstance(t, np.ndarray):
            return pow_arr(_clean_nonneg_arr(t, "time"), self.delta) / self.delta
        t = _clean_nonneg(float(t), "time")
        return pow_pos(t, self.delta) / self.delta

    def psi_inv(self, s):
        """Inverse map s -> (delta * s)**(1/delta)."""
        if isinstance(s, np.ndarray):
            s = _clean_nonneg_arr(s, "rescaled time")
            return pow_arr(self.delta * s, 1.0 / self.delta)
        s = _clean_nonneg(float(s), "rescaled time")
        return pow_pos(self.delta * s, 1.0 / self.delta)
