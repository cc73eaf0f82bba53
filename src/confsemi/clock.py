"""Power-law time rescaling shared by every other module.

An `Order` delta is the clock: it maps conformable time t to classical
semigroup time s = t**delta / delta.  The map is a strictly increasing
bijection of the nonnegative half-line onto itself, with inverse
t = (delta * s)**(1/delta).
Both maps take a float or a numpy array; this is the one place where either
formula is written down.  Every power is taken with `**`: C pow for a float,
numpy's power loop for an array, each within about an ulp of the exact
power at any exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Order", "pow_arr"]

# inputs more negative than this are rejected; anything in [-NEG_DUST, 0)
# is treated as floating-point dust from upstream subtraction and clamped to 0
NEG_DUST = 1e-15


def pow_arr(base, exponent: float):
    """Elementwise base**exponent for base >= 0, with numpy's power loop.

    A zero base gives 1 at exponent 0 and 0 above it, and raises ValueError
    below it.  Exponent 1 returns the base values bitwise (order-1
    reductions exact).  A float base gives a numpy float.
    """
    base = np.asarray(base, dtype=float)
    if exponent < 0.0 and not np.all(base > 0.0):
        raise ValueError(f"a zero base has no power {exponent}")
    return base ** exponent


def _nonneg(value, what: str):
    """A numpy array as it is, anything else as one float, with entries in
    [-NEG_DUST, 0) clamped to 0 and lower ones rejected."""
    is_array = isinstance(value, np.ndarray)
    # one reduction: the maps sit in hot loops
    low = value.min(initial=0.0) if is_array else float(value)
    if low < -NEG_DUST:
        raise ValueError(f"{what} must be nonnegative, got {low}")
    if low < 0.0:
        return np.maximum(value, 0.0) if is_array else 0.0
    return value if is_array else low


@dataclass(frozen=True)
class Order:
    """Rescaling order delta in (0, 1], with its clock map and inverse.

    A numpy array is mapped elementwise; anything else is taken as one
    float and gives a float.
    """

    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"order must lie in (0, 1], got {self.delta}")

    def psi(self, t):
        """Forward map t -> t**delta / delta."""
        return _nonneg(t, "time") ** self.delta / self.delta

    def psi_inv(self, s):
        """Inverse map s -> (delta * s)**(1/delta)."""
        return (self.delta * _nonneg(s, "rescaled time")) ** (1.0 / self.delta)
