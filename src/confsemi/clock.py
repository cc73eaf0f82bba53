"""Power-law time rescaling shared by every other module.

An `Order` delta is the clock: it maps conformable time t to classical
semigroup time s = t**delta / delta.  The map is a strictly increasing
bijection of the nonnegative half-line onto itself, with inverse
t = (delta * s)**(1/delta).
Both maps take a float or a numpy array; this is the one place where either
formula is written down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Order", "pow_arr"]

# inputs more negative than this are rejected; anything in [-NEG_DUST, 0)
# is treated as floating-point dust from upstream subtraction and clamped to 0
NEG_DUST = 1e-15


def _pow_pos(base: float, exponent: float) -> float:
    """The clock's float path: base**exponent for a float base >= 0 and an
    exponent > 0 (delta or 1/delta), with pow_arr's arithmetic.  A float
    through pow_arr, as a 0-d array, costs about twenty times as much."""
    if base == 0.0:
        return 0.0
    if exponent == 1.0:
        return float(base)
    return math.exp(exponent * math.log(base))


def pow_arr(base, exponent: float) -> np.ndarray:
    """Elementwise base**exponent for base >= 0, via exp(exponent * log(base)).

    A zero base gives 1 at exponent 0 and 0 above it, and raises ValueError
    below it.  Exponent 1 returns the base values bitwise (order-1
    reductions exact).  A float base gives a 0-d array.
    """
    base = np.asarray(base, dtype=float)
    if exponent == 1.0:
        return base.copy()
    pos = base > 0.0
    if exponent < 0.0 and not pos.all():
        raise ValueError(f"a zero base has no power {exponent}")
    out = np.full_like(base, 1.0 if exponent == 0.0 else 0.0)
    out[pos] = np.exp(exponent * np.log(base[pos]))
    return out


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
class Order:
    """Rescaling order delta in (0, 1], with its clock map and inverse.

    A numpy array is mapped elementwise with `pow_arr`; anything else is
    taken as one float and mapped with the float path `_pow_pos`.
    """

    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"order must lie in (0, 1], got {self.delta}")

    def psi(self, t):
        """Forward map t -> t**delta / delta."""
        if isinstance(t, np.ndarray):
            return pow_arr(_clean_nonneg_arr(t, "time"), self.delta) / self.delta
        t = _clean_nonneg(float(t), "time")
        return _pow_pos(t, self.delta) / self.delta

    def psi_inv(self, s):
        """Inverse map s -> (delta * s)**(1/delta)."""
        if isinstance(s, np.ndarray):
            s = _clean_nonneg_arr(s, "rescaled time")
            return pow_arr(self.delta * s, 1.0 / self.delta)
        s = _clean_nonneg(float(s), "rescaled time")
        return _pow_pos(self.delta * s, 1.0 / self.delta)
