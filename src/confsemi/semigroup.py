"""Finite-dimensional evolution backends and their verification battery.

A generator matrix A, together with a diagonal discrete inner product,
defines the classical flow exp(sA).  Pairing that flow with a clock of order
delta gives the rescaled family S(t) = exp(psi(t) A).  This module evaluates
both, the composition law in the rescaled time, difference-quotient
reconstructions of the generator, an independent adaptive Runge-Kutta orbit
for the singular ODE x'(t) = t**(delta-1) A x(t), and the dissipativity /
resolvent / contraction battery for negative generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import bandwidth, expm

from .clock import Clock, Order

__all__ = [
    "GeneratorMatrix",
    "ConformableSemigroup",
    "OrbitSample",
    "taylor_matrix_exp",
    "evolve_classical",
    "delta_law_residual",
    "generator_delta_quotient",
    "classical_generator_quotient",
    "solve_conformable_ode",
    "dissipativity_margin",
    "resolvent_bound_check",
    "contraction_check",
    "dirichlet_second_difference",
    "strong_continuity_fit",
    "neville_extrapolate",
]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Square generator with a diagonal weighted inner product.

    ip_weights w define <x, y> = sum_i w_i x_i conj(y_i); every norm in this
    module is taken in that inner product.

    Real entries are stored as float64 and complex entries as complex128, so
    real generators run expm, SVD and inversion in real arithmetic.  State
    vectors stay complex; a real matrix applied to one gives the same flow.
    """

    entries: np.ndarray
    ip_weights: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries)
        entries = entries.astype(
            complex if np.iscomplexobj(entries) else float, copy=False)
        weights = np.asarray(self.ip_weights, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("need at least one state dimension")
        if weights.shape != (entries.shape[0],):
            raise ValueError("ip_weights length must match the matrix size")
        if np.any(weights <= 0.0):
            raise ValueError("ip_weights must all be positive")
        if not np.all(np.isfinite(entries)):
            raise FloatingPointError("generator has non-finite entries")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ip_weights", weights)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def w_norm(self, x: np.ndarray) -> float:
        x = np.asarray(x)
        return float(np.sqrt(np.sum(self.ip_weights * np.abs(x) ** 2).real))

    def w_operator_norm(self, matrix: np.ndarray) -> float:
        # similarity by sqrt(W) turns the weighted norm into the Euclidean one
        root = np.sqrt(self.ip_weights)
        scaled = (root[:, None] * matrix) / root[None, :]
        return float(np.linalg.norm(scaled, 2))


# series length of the expm oracle: at norm <= 1/2 the tail is far below
# rounding
_TAYLOR_TERMS = 30


def taylor_matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Series-plus-squaring exponential, the in-repo oracle for expm.

    The argument is scaled by a power of two until its norm is at most 1/2,
    the series is summed to _TAYLOR_TERMS, and the result is squared back up.
    """
    matrix = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(matrix, np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    scaled = matrix / (2.0 ** squarings)
    n = matrix.shape[0]
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


# 1-norm up to which the degree-13 Pade approximant of Al-Mohy and Higham
# (SIMAX 31, 2009) needs no scaling
_THETA_13 = 5.371920351148152
# entries below this fraction of the largest are flushed to zero while
# squaring: a far entry of exp(A / 2**k) for a banded A decays into the
# subnormal range, and BLAS multiplies subnormals at a fraction of full speed
_FLUSH_RATIO = 2.0 ** -511


def _scale_for_squaring(matrix: np.ndarray) -> tuple:
    """(matrix / 2**k, k) with k the squarings that bring the 1-norm to
    _THETA_13 or below.

    Triangular and diagonal input gets k = 0: expm squares it with the exact
    diagonal, which the flushed squaring would not reproduce.
    """
    if 0 in bandwidth(matrix):
        return matrix, 0
    norm = np.linalg.norm(matrix, 1)
    if norm <= _THETA_13:
        return matrix, 0
    k = int(np.ceil(np.log2(norm / _THETA_13)))
    return matrix / 2.0 ** k, k


def _flush(flow: np.ndarray) -> bool:
    """Zero the entries below _FLUSH_RATIO times the largest, in place;
    True when there were none."""
    size = np.abs(flow)
    tiny = size < _FLUSH_RATIO * np.max(size)
    if not np.any(tiny):
        return True
    flow[tiny] = 0.0
    return False


def _square_flushed(flow: np.ndarray, k: int) -> np.ndarray:
    """flow**(2**k) by k squarings, flushing tiny entries after the Pade
    step and after each squaring until a flush finds nothing to zero.

    Each flush moves the product by at most n * 2**-511 of its largest
    entry per squaring, far below rounding, and keeps subnormals out of the
    matrix products.  The flushes overwrite flow; k = 0 returns it
    untouched.
    """
    if k == 0:
        return flow
    clean = _flush(flow)
    for _ in range(k):
        flow = flow @ flow
        if not clean:
            clean = _flush(flow)
    return flow


def _flow(matrix: np.ndarray) -> np.ndarray:
    """exp(matrix): expm of the scaled matrix, then the flushed squaring."""
    scaled, k = _scale_for_squaring(matrix)
    return _square_flushed(expm(scaled), k)


def evolve_classical(g: GeneratorMatrix, s: float, x: np.ndarray) -> np.ndarray:
    """exp(sA) x by scaling-and-squaring (dense, any square A)."""
    if s < 0.0:
        raise ValueError(f"classical time must be nonnegative, got {s}")
    x = np.asarray(x, dtype=complex)
    if s == 0.0:
        return x.copy()
    out = _flow(s * g.entries) @ x
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"evolution produced non-finite state at s={s}")
    return out


@dataclass(frozen=True)
class ConformableSemigroup:
    """The rescaled family: evolve(t, x) = exp(psi(t) A) x."""

    generator: GeneratorMatrix
    clock: Clock

    def evolve(self, t: float, x: np.ndarray) -> np.ndarray:
        return evolve_classical(self.generator, self.clock.psi(t), x)


def delta_law_residual(cs: ConformableSemigroup, r: float, q: float,
                       x: np.ndarray) -> float:
    """Composition-law defect in the rescaled time variable.

    Compares the one-shot evolution at (r+q)**(1/delta) with the two-step
    evolution at r**(1/delta) then q**(1/delta), in the weighted norm.
    """
    if r < 0.0 or q < 0.0:
        raise ValueError("law arguments must be nonnegative")
    d = cs.clock.delta
    one_shot = cs.evolve((r + q) ** (1.0 / d), x)
    two_step = cs.evolve(r ** (1.0 / d), cs.evolve(q ** (1.0 / d), x))
    return cs.generator.w_norm(one_shot - two_step)


def neville_extrapolate(nodes: np.ndarray, values: list) -> np.ndarray:
    """Polynomial extrapolation to node -> 0 through (nodes[i], values[i])."""
    nodes = np.asarray(nodes, dtype=float)
    if len(nodes) != len(values) or len(nodes) < 2:
        raise ValueError("need matching node/value lists of length >= 2")
    table = [np.asarray(v, dtype=complex) for v in values]
    m = len(table)
    for stride in range(1, m):
        nxt = []
        for i in range(m - stride):
            hi, lo = nodes[i], nodes[i + stride]
            nxt.append((hi * table[i + 1] - lo * table[i]) / (hi - lo))
        table = nxt
    return table[0]


def generator_delta_quotient(cs: ConformableSemigroup, x: np.ndarray,
                             t_seq) -> np.ndarray:
    """Extrapolated stretched difference quotient (S(t)x - x) / psi(t).

    The quotient is a smooth function of u = psi(t), so extrapolation runs in
    u; the limit must reproduce A x.
    """
    t_seq = np.asarray(t_seq, dtype=float)
    if len(t_seq) < 4:
        raise ValueError("need at least 4 quotient times")
    if np.any(t_seq <= 0.0) or np.any(np.diff(t_seq) >= 0.0):
        raise ValueError("t_seq must be positive and strictly decreasing")
    us = [cs.clock.psi(t) for t in t_seq]
    limit = classical_generator_quotient(cs.generator, x, us)
    if not np.all(np.isfinite(limit)):
        raise FloatingPointError("quotient extrapolation diverged")
    return limit


def classical_generator_quotient(g: GeneratorMatrix, x: np.ndarray,
                                 s_seq) -> np.ndarray:
    """Plain difference quotient (exp(sA)x - x)/s extrapolated to s -> 0."""
    s_seq = np.asarray(s_seq, dtype=float)
    if len(s_seq) < 4:
        raise ValueError("need at least 4 quotient times")
    x = np.asarray(x, dtype=complex)
    quotients = [(evolve_classical(g, s, x) - x) / s for s in s_seq]
    return neville_extrapolate(s_seq, quotients)


@dataclass(frozen=True)
class OrbitSample:
    """States along an orbit with their weighted norms."""

    times: np.ndarray
    states: list
    norms: np.ndarray


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])


def _rk45_advance(rhs, t: float, x: np.ndarray, t_target: float,
                  rtol: float, atol: float, max_steps: int = 500_000):
    """Integrate rhs from (t, x) to t_target with embedded 5(4) steps."""
    h = max((t_target - t) / 100.0, 1e-12)
    steps = 0
    while t < t_target:
        if h < 1e-14 * abs(t):
            raise FloatingPointError(f"step size underflow at t={t}")
        h = min(h, t_target - t)
        stages = []
        for i in range(7):
            xi = x
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    xi = xi + (h * a) * stages[j]
            stages.append(rhs(t + _DP_C[i] * h, xi))
        hi = x + h * sum(b * k for b, k in zip(_DP_B5, stages) if b != 0.0)
        lo = x + h * sum(b * k for b, k in zip(_DP_B4, stages) if b != 0.0)
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(hi))
        err = float(np.sqrt(np.mean((np.abs(hi - lo) / scale) ** 2)))
        if err <= 1.0:
            t, x = t + h, hi
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        steps += 1
        if steps > max_steps:
            raise FloatingPointError(f"step budget exhausted at t={t}")
    return x


def solve_conformable_ode(g: GeneratorMatrix, delta: Order, x0: np.ndarray,
                          t_end: float, rtol: float = 1e-9, atol: float = 1e-12,
                          n_out: int = 21) -> OrbitSample:
    """Independent orbit of x'(t) = t**(delta-1) A x(t) on a fixed grid.

    The right-hand side is singular at t=0 for delta < 1, so the segment
    [0, t0] is advanced exactly via exp(psi(t0) A); from t0 on, integration
    is a hand-rolled adaptive embedded Runge-Kutta that never consults the
    clock.  t0 = min(1e-3, (1e-3 * delta)**(1/delta)).
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    d = delta.delta
    clock = Clock(delta)
    x0 = np.asarray(x0, dtype=complex)
    matrix = g.entries
    # psi_inv(1e-3) in this route's own rounding; the clock's exp/log
    # differs in the last bit at most orders and would move orbit residuals
    t0 = min(1e-3, (1e-3 * d) ** (1.0 / d))

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        return t ** (d - 1.0) * (matrix @ x)

    times = np.linspace(0.0, t_end, n_out)
    states = []
    t_cur = t0
    x_cur = expm(clock.psi(t0) * matrix) @ x0
    for t in times:
        if t == 0.0:
            states.append(x0.copy())
        elif t <= t0:
            states.append(expm(clock.psi(t) * matrix) @ x0)
        else:
            x_cur = _rk45_advance(rhs, t_cur, x_cur, t, rtol, atol)
            t_cur = t
            states.append(x_cur.copy())
    norms = np.array([g.w_norm(s) for s in states])
    return OrbitSample(times=times, states=states, norms=norms)


def dissipativity_margin(g: GeneratorMatrix) -> float:
    """Largest Rayleigh quotient Re<Ax, x> over unit weighted-norm x.

    Computed as the top eigenvalue of the weighted-symmetrized matrix; a
    nonpositive value certifies discrete dissipativity.
    """
    root = np.sqrt(g.ip_weights)
    similar = (root[:, None] * g.entries) / root[None, :]
    sym = 0.5 * (similar + similar.conj().T)
    return float(np.max(np.linalg.eigvalsh(sym)))


# seeded random vectors probing the pointwise resolvent lower bound
_RESOLVENT_PROBES = 100


def resolvent_bound_check(g: GeneratorMatrix, lam: float,
                          seed: int = 0) -> tuple:
    """Shifted-inverse norm bound for a dissipative generator.

    Measures by how much lam times the weighted operator norm of
    (lam I - A)^-1 exceeds one, and by how much the pointwise lower bound
    ||(lam I - A) x|| >= lam ||x|| is violated on seeded random vectors.
    Returns (residual, params); both excesses are relative, at most 0 when
    the bound holds.
    """
    if lam <= 0.0:
        raise ValueError(f"shift must be positive, got {lam}")
    margin = dissipativity_margin(g)
    if margin > 1e-12:
        raise ValueError(
            f"generator is not dissipative (margin {margin:.3e}); bound is void")
    n = g.dim
    shifted = lam * np.eye(n) - g.entries
    inverse = np.linalg.inv(shifted)
    norm_excess = lam * g.w_operator_norm(inverse) - 1.0
    # per probe: n normals for the real part, then n for the imaginary part
    draws = np.random.default_rng(seed).standard_normal(
        (_RESOLVENT_PROBES, 2, n))
    probes = (draws[:, 0] + 1j * draws[:, 1]).T
    weights = g.ip_weights[:, None]
    lhs = np.sqrt(np.sum(weights * np.abs(shifted @ probes) ** 2, axis=0))
    rhs_val = lam * np.sqrt(np.sum(weights * np.abs(probes) ** 2, axis=0))
    lower_excess = float(np.max((rhs_val - lhs) / rhs_val, initial=-np.inf))
    return max(norm_excess, lower_excess), {
        "lambda": lam, "n": n, "norm_excess": norm_excess,
        "lower_excess": lower_excess, "margin": margin}


def contraction_check(cs: ConformableSemigroup, t_grid) -> tuple:
    """Operator norms of the rescaled flow stay at or below one.

    Returns (residual, params), the residual being the worst excess of a
    weighted operator norm over one on t_grid.
    """
    g = cs.generator
    margin = dissipativity_margin(g)
    if margin > 1e-12:
        raise ValueError(
            f"generator is not dissipative (margin {margin:.3e}); "
            "contraction is not implied")
    worst = -np.inf
    norms = {}
    for t in t_grid:
        flow = _flow(cs.clock.psi(t) * g.entries)
        norm = g.w_operator_norm(flow)
        norms[f"t={t}"] = norm
        worst = max(worst, norm - 1.0)
    return worst, {"delta": cs.clock.delta, "margin": margin, **norms}


def dirichlet_second_difference(n: int) -> GeneratorMatrix:
    """Second-difference matrix on n interior nodes, both ends clamped,
    with the uniform-mesh inner product (weight h per node)."""
    if n < 2:
        raise ValueError("need n >= 2 interior nodes")
    h = 1.0 / (n + 1)
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    entries = (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h ** 2
    return GeneratorMatrix(entries=entries, ip_weights=h * np.ones(n),
                           label=f"dirichlet_laplacian[n={n}]")


def strong_continuity_fit(cs: ConformableSemigroup, x: np.ndarray) -> dict:
    """Small-time behaviour of ||S(t)x - x|| on the dyadic grid t = 2**-k,
    k = 4..20.

    Returns the decrease flag, the fitted slope C = max of gap/psi(t), the
    weighted norm of A x, and their relative deviation (first-order bound).
    """
    g = cs.generator
    x = np.asarray(x, dtype=complex)
    ts = [2.0 ** -k for k in range(4, 21)]
    gaps = np.array([g.w_norm(cs.evolve(t, x) - x) for t in ts])
    psis = np.array([cs.clock.psi(t) for t in ts])
    ratios = gaps / psis
    slope = float(np.max(ratios))
    generator_norm = g.w_norm(g.entries @ x)
    decreasing = bool(np.all(np.diff(gaps) < 0.0))
    return {
        "decreasing": decreasing,
        "slope": slope,
        "generator_norm": generator_norm,
        "rel_dev": abs(slope - generator_norm) / generator_norm,
    }
