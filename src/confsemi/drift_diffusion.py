"""Drift-diffusion pair on (0,1): graded-grid operator, classical twin,
diagonal unitary, conjugacy studies, and the closed-form eigenfunctions.

The weighted-derivative operator a D(Df) + b Df + c f on the graded grid
x_i = xi_i**(1/delta) is unitarily equivalent to the constant-coefficient
operator a" g'' + b" g' + c g on the uniform grid, with a" = a delta**2 and
b" = b delta.  The equivalence is realized discretely by the diagonal map
delta**(-1/2) I between matched grids, and verified through interior
residuals, evolution comparison, and an eigenfunction family that is entire
in the spectral parameter.  The map is a scalar, so it conjugates an
operator to itself: the graded stencil is compared with the twin's as it
stands, and the map's one job is the pairing of the inner products, the
node weight h/delta with h.

Both operators are assembled once, as three-point stencils (first, w): the
column of each row's first node and a (3, n) weight array.  The conjugacy
study applies their difference to the corpus without building an n x n
array; a dense matrix is scattered only where a GeneratorMatrix needs its
entries.  The evolution comparison flows both operators with semigroup's
stepper (_advance); this module holds no flow code of its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# not called here: the benchmark's span tracer (perfbench/spans.py,
# EXPM_SITES) wraps the expm bound in this module and fails without it
from scipy.linalg import expm

from .calculus import FunctionHandle, conf_derivative, conf_derivative_iterated
from .clock import Order, pow_arr

__all__ = [
    "DriftDiffusionParams",
    "GridPair",
    "EigenfunctionFamily",
    "parameter_transfer",
    "build_classical_operator",
    "build_conformable_operator",
    "discrete_unitary",
    "conjugacy_residual",
    "empirical_orders",
    "mild_solution_residuals",
    "derivative_identity_residuals",
]

from .semigroup import (GeneratorMatrix, _advance, _toeplitz_eigenpairs,
                        _tridiagonal_eigenpairs)

# fixed smooth probe functions on the uniform-variable interval (0,1)
SMOOTH_CORPUS = (
    ("sin_pi", lambda s: np.sin(np.pi * s)),
    ("parabola", lambda s: s * (1.0 - s)),
    ("square", lambda s: s ** 2),
    ("expm1", lambda s: np.expm1(s)),
    ("sin_2pi", lambda s: np.sin(2.0 * np.pi * s)),
)

# interior window whose rows enter residual metrics; fixed so the row set
# does not creep toward the boundary layers as the grid is refined
WINDOW = (0.1, 0.9)

# uniform samples on [0,1] over which fourth_derivative_sup takes its max
_SUP_SAMPLES = 2001

# corpus for evolution comparisons: vanishes at both clamped ends
_CLAMPED_CORPUS = (
    ("sin_pi", lambda s: np.sin(np.pi * s)),
    ("parabola", lambda s: s * (1.0 - s)),
    ("cubic", lambda s: s ** 2 * (1.0 - s)),
    ("sin_2pi", lambda s: np.sin(2.0 * np.pi * s)),
    ("bump_exp", lambda s: s * (1.0 - s) * np.exp(s)),
)


@dataclass(frozen=True)
class DriftDiffusionParams:
    a: float  # diffusion
    b: float  # drift
    c: float  # reaction
    delta: Order

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0 or self.c <= 0.0:
            raise ValueError(
                f"coefficients must be positive, got ({self.a}, {self.b}, {self.c})")


def parameter_transfer(p: DriftDiffusionParams) -> tuple:
    """(a delta**2, b delta, c): the constant-coefficient twin's parameters.

    The quotient drift**2 / (2 diffusion) is invariant under this transfer.
    """
    d = p.delta.delta
    return (p.a * d * d, p.b * d, p.c)


@dataclass(frozen=True)
class GridPair:
    """Uniform grid in the stretched variable and its graded preimage."""

    n: int
    xi_nodes: np.ndarray
    x_nodes: np.ndarray
    h: float
    delta: Order

    @classmethod
    def build(cls, n: int, delta: Order) -> "GridPair":
        if n < 8:
            raise ValueError(f"need n >= 8 nodes, got {n}")
        h = 1.0 / (n + 1)
        xi = h * np.arange(1, n + 1)
        x = pow_arr(xi, 1.0 / delta.delta)
        pair = cls(n=n, xi_nodes=xi, x_nodes=x, h=h, delta=delta)
        drift = np.max(np.abs(pow_arr(x, delta.delta) - xi))
        if drift > 1e-14:
            raise FloatingPointError(f"grid consistency drift {drift:.3e}")
        return pair


def _quadratic_weights(nodes: tuple, at: float) -> tuple:
    """First/second derivative weights of the quadratic through three nodes."""
    x1, x2, x3 = nodes
    w1 = np.array([
        ((at - x2) + (at - x3)) / ((x1 - x2) * (x1 - x3)),
        ((at - x1) + (at - x3)) / ((x2 - x1) * (x2 - x3)),
        ((at - x1) + (at - x2)) / ((x3 - x1) * (x3 - x2)),
    ])
    w2 = np.array([
        2.0 / ((x1 - x2) * (x1 - x3)),
        2.0 / ((x2 - x1) * (x2 - x3)),
        2.0 / ((x3 - x1) * (x3 - x2)),
    ])
    return w1, w2


def _difference_stencils(nodes: np.ndarray, right_ghost: Optional[float]) -> tuple:
    """Three-point first/second difference stencils on arbitrary nodes.

    Returns (first, w1, w2): row i takes the weights w1[:, i] (first
    difference) and w2[:, i] (second) at the columns first[i] + 0, 1, 2.  A
    ghost node at 0 with clamped value closes the left end, so row 0 reads
    column -1.  The right end is either closed the same way (right_ghost =
    endpoint; row n - 1 reads column n) or left free with a one-sided
    second-order stencil on the last row (first = n - 3).
    """
    n = len(nodes)
    ghost = [] if right_ghost is None else [right_ghost]
    extended = np.concatenate(([0.0], nodes, ghost))
    # per row: stencil nodes, the node the weights are taken at, and the
    # column of the first stencil node
    x1, x2, x3 = extended[:-2], extended[1:-1], extended[2:]
    at, first = x2, np.arange(-1, len(x2) - 1)
    if right_ghost is None:
        x1, x2, x3 = (np.append(x1, nodes[n - 3]), np.append(x2, nodes[n - 2]),
                      np.append(x3, nodes[n - 1]))
        at, first = np.append(at, nodes[n - 1]), np.append(first, n - 3)
    w1, w2 = _quadratic_weights((x1, x2, x3), at)
    return first, w1, w2


def _stencil_dense(first: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The n x n matrix of the stencil (first, w), ghost columns dropped."""
    n = w.shape[1]
    dense = np.zeros((n, n))
    rows = np.arange(n)
    for k in range(3):
        cols = first + k
        keep = (cols >= 0) & (cols < n)
        dense[rows[keep], cols[keep]] += w[k, keep]
    return dense


def _stencil_apply(first: np.ndarray, w: np.ndarray,
                   block: np.ndarray) -> np.ndarray:
    """The stencil rows (first, w) times the (n, m) block, ghost values 0.

    The rows may be any subset of an operator's rows; the block is always
    the whole state.
    """
    padded = np.zeros((block.shape[0] + 2, block.shape[1]), dtype=block.dtype)
    padded[1:-1] = block
    out = w[0][:, None] * padded[first + 1]
    for k in (1, 2):
        out += w[k][:, None] * padded[first + 1 + k]
    return out


def _assemble_conformable(a: float, b: float, c: float, delta: float,
                          x: np.ndarray, clamp_right: bool) -> tuple:
    """Stencil (first, w) of a D(Df) + b Df + c f with the order-delta
    derivative D on nodes x (see _difference_stencils).

    At delta = 1 the weights are exactly 0 and 1, so the classical twin is
    this routine at order 1 on the uniform nodes, in identical arithmetic.
    Weights that leave double range (node gaps whose products underflow at
    small orders on fine grids) are kept as inf or nan, without a warning:
    GeneratorMatrix refuses them and _window_gap turns them into a nan
    residual.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        first, w1, w2 = _difference_stencils(x, 1.0 if clamp_right else None)
        # two applications of the order-delta derivative, expanded by the
        # product rule; nesting the difference stencils instead would widen
        # the stencil and break exact agreement with the classical twin at
        # delta=1
        second = ((1.0 - delta) * pow_arr(x, 1.0 - 2.0 * delta) * w1
                  + pow_arr(x, 2.0 - 2.0 * delta) * w2)
        drift = pow_arr(x, 1.0 - delta) * w1
        # c on each row's own column, as c times the identity
        diagonal = first + np.arange(3)[:, None] == np.arange(len(x))
        return first, a * second + b * drift + c * diagonal


def build_classical_operator(p: DriftDiffusionParams, grid: GridPair,
                             clamp_right: bool = False) -> GeneratorMatrix:
    """Constant-coefficient twin on the uniform grid, plain mesh weight h.

    Clamped at both ends the twin is tridiagonal Toeplitz and carries
    closed-form eigenpairs (semigroup._toeplitz_eigenpairs) when they
    exist, and flows in that basis while they are certified.
    """
    if p.delta != grid.delta:
        raise ValueError("grid was built for a different order")
    a_t, b_t, c = parameter_transfer(p)
    entries = _stencil_dense(*_twin_stencil(p, grid, clamp_right))
    pairs = _toeplitz_eigenpairs(a_t, b_t, c, grid.n) if clamp_right else None
    return GeneratorMatrix(
        entries=entries, weight=grid.h, label=f"classical[n={grid.n}]",
        eigenpairs=pairs, eigenbasis_flow=pairs is not None)


def build_conformable_operator(p: DriftDiffusionParams, grid: GridPair,
                               clamp_right: bool = False) -> GeneratorMatrix:
    """Graded-grid operator with the pushforward weighted inner product.

    The node weight h/delta is the exact image of the uniform rule under the
    grading, so the diagonal unitary intertwines the inner products exactly.
    """
    if p.delta != grid.delta:
        raise ValueError("grid was built for a different order")
    entries = _stencil_dense(*_graded_stencil(p, grid, clamp_right))
    return GeneratorMatrix(entries=entries, weight=grid.h / p.delta.delta,
                           label=f"graded[n={grid.n}]")


def _twin_stencil(p: DriftDiffusionParams, grid: GridPair,
                  clamp_right: bool) -> tuple:
    """Stencil (first, w) of the classical twin on the uniform nodes."""
    a_t, b_t, c = parameter_transfer(p)
    return _assemble_conformable(a_t, b_t, c, 1.0, grid.xi_nodes, clamp_right)


def _graded_stencil(p: DriftDiffusionParams, grid: GridPair,
                    clamp_right: bool) -> tuple:
    """Stencil (first, w) of the graded operator on the graded nodes."""
    return _assemble_conformable(p.a, p.b, p.c, p.delta.delta, grid.x_nodes,
                                 clamp_right)


def discrete_unitary(grid: GridPair) -> tuple:
    """Diagonal map between matched grids and its inverse.

    Node i of the graded grid is node i of the uniform grid after the
    stretch, so the map is the scalar delta**(-1/2); the pair
    (delta**(-1/2), delta**(1/2)) is returned as floats.
    """
    root = float(np.sqrt(grid.delta.delta))
    return 1.0 / root, root


def _window_rows(grid: GridPair) -> np.ndarray:
    lo, hi = WINDOW
    return (grid.xi_nodes >= lo) & (grid.xi_nodes <= hi)


def _corpus_block(grid: GridPair, corpus) -> np.ndarray:
    """The corpus sampled on the uniform grid, one column per function."""
    return np.column_stack([func(grid.xi_nodes) for _, func in corpus])


def _window_sup(block: np.ndarray, rows: np.ndarray) -> float:
    """Largest window entry of |block| over all its columns."""
    return float(np.max(np.abs(block[rows])))


def _window_gap(first: np.ndarray, graded: np.ndarray, twin: np.ndarray,
                block: np.ndarray, rows: np.ndarray) -> float:
    """Largest window entry of |(graded - twin) block| for two stencils on
    the columns first, taken on the window rows alone; nan when a weight of
    either is not finite on any row, inside the window or not, so that an
    operator out of double range never passes."""
    if not (np.all(np.isfinite(graded)) and np.all(np.isfinite(twin))):
        return math.nan
    gap = graded[:, rows] - twin[:, rows]
    return float(np.max(np.abs(_stencil_apply(first[rows], gap, block))))


def conjugacy_residual(p: DriftDiffusionParams, n_list) -> list:
    """Interior disagreement of the unitarily equivalent operator pair.

    For each grid size, returns the max over the smooth corpus of the
    sup-norm of (A_graded - A_classical) applied to corpus samples, over
    rows inside the fixed window; the scalar unitary U = delta**(-1/2) I
    gives U A_graded U^-1 = A_graded, so it is not applied.  Both operators
    are applied as three-point stencils, so no n x n array is built.  The
    residual is nan when a stencil weight leaves double range (see
    _window_gap), which makes every order it enters nan.  Residuals must
    shrink as the grid refines; the caller turns consecutive entries into
    empirical orders.
    """
    if any(n < 16 for n in n_list):
        raise ValueError("conjugacy study needs n >= 16")
    out = []
    for n in n_list:
        grid = GridPair.build(int(n), p.delta)
        first, graded = _graded_stencil(p, grid, False)
        twin = _twin_stencil(p, grid, False)[1]
        out.append((int(n), _window_gap(first, graded, twin,
                                        _corpus_block(grid, SMOOTH_CORPUS),
                                        _window_rows(grid))))
    return out


def empirical_orders(pairs: list) -> list:
    """log-ratio convergence orders from (n, residual) pairs."""
    orders = []
    for (n0, r0), (n1, r1) in zip(pairs, pairs[1:]):
        h0, h1 = 1.0 / (n0 + 1), 1.0 / (n1 + 1)
        if r1 <= 0.0:
            orders.append(np.inf)
        else:
            orders.append(float(np.log(r0 / r1) / np.log(h0 / h1)))
    return orders


@dataclass(frozen=True)
class EigenfunctionFamily:
    """Divided-difference exponential family, entire in the spectral value.

    For coefficients (diffusion, drift, reaction) the function
    phi(xi) = (exp(mu1 xi) - exp(mu2 xi)) / (mu1 - mu2), with mu1, mu2 the
    characteristic roots, solves the constant-coefficient eigenvalue problem
    with left value 0; the confluent branch xi exp(mu xi) covers coincident
    roots.
    """

    diffusion: float
    drift: float
    reaction: float

    @classmethod
    def from_params(cls, p: DriftDiffusionParams) -> "EigenfunctionFamily":
        a_t, b_t, c = parameter_transfer(p)
        return cls(diffusion=a_t, drift=b_t, reaction=c)

    def root_map(self, lam: complex) -> tuple:
        disc = cmath.sqrt(self.drift ** 2
                          - 4.0 * self.diffusion * (self.reaction - lam))
        mu1 = (-self.drift + disc) / (2.0 * self.diffusion)
        mu2 = (-self.drift - disc) / (2.0 * self.diffusion)
        return mu1, mu2

    def confluent_point(self) -> complex:
        """Spectral value where the two characteristic roots coincide."""
        return self.reaction - self.drift ** 2 / (4.0 * self.diffusion)

    def evaluate(self, lam: complex, xi, k: int = 0) -> np.ndarray:
        """The k-th xi-derivative of phi at the nodes xi."""
        mu1, mu2 = self.root_map(lam)
        xi = np.asarray(xi, dtype=float)
        if abs(mu1 - mu2) < 1e-8:
            mu = -self.drift / (2.0 * self.diffusion)
            # d^k/dxi^k of xi e^{mu xi}; the k = 0 term is dropped, so a
            # zero mu never meets a negative power
            return np.exp(mu * xi) * (mu ** k * xi
                                      + (k * mu ** (k - 1) if k else 0.0))
        return (mu1 ** k * np.exp(mu1 * xi)
                - mu2 ** k * np.exp(mu2 * xi)) / (mu1 - mu2)

    def fourth_derivative_sup(self, lam: complex) -> float:
        """Max of |phi''''| on [0,1], the scale in the residual bound."""
        xi = np.linspace(0.0, 1.0, _SUP_SAMPLES)
        return float(np.max(np.abs(self.evaluate(lam, xi, k=4))))


def mild_solution_residuals(p: DriftDiffusionParams, n: int, t_list) -> dict:
    """Evolution agreement of the operator pair, both ends clamped.

    With the free right closure the two flows legitimately diverge O(1):
    the closure mismatch at the uncontrolled boundary propagates into the
    interior.  Clamping both ends gives the well-posed comparison; the
    window error must stay below 5 * (window stencil residual) * t.

    Both flows advance the corpus block through t_list, which must be
    nondecreasing and nonnegative (see semigroup._advance).  The twin flows
    in its closed-form eigenbasis and the graded operator (as assembled, in
    the twin's weight h) in the eigenbasis of _tridiagonal_eigenpairs, each
    while certified against the entries it flows; otherwise each flows
    densely.  At delta = 1 the two are equal bit for bit, so the twin's flow
    serves both and every error is 0.  An error is inf from the step at
    which a flow leaves double range, and at every step when the graded
    operator's weights do (its stencil residual is then nan, see
    _window_gap).
    """
    times = [float(t) for t in t_list]
    steps = np.diff([0.0, *times])
    if np.any(steps < 0.0):
        raise ValueError(f"t_list must be nonnegative and nondecreasing, got {t_list}")
    grid = GridPair.build(n, p.delta)
    first, graded_w = _graded_stencil(p, grid, True)
    twin_w = _twin_stencil(p, grid, True)[1]
    twin = build_classical_operator(p, grid, clamp_right=True)
    block, rows = _corpus_block(grid, _CLAMPED_CORPUS), _window_rows(grid)
    stencil_residual = _window_gap(first, graded_w, twin_w, block, rows)
    errors = []
    try:
        if np.array_equal(graded_w, twin_w):
            flows = ((state, state) for state in _advance(twin, steps, block))
        else:
            entries = _stencil_dense(first, graded_w)
            pairs = _tridiagonal_eigenpairs(entries)
            # refuses weights out of double range before either flow starts
            graded = GeneratorMatrix(entries, twin.weight, f"graded[n={n}]",
                                     eigenpairs=pairs,
                                     eigenbasis_flow=pairs is not None)
            flows = zip(_advance(graded, steps, block),
                        _advance(twin, steps, block))
        for graded_state, twin_state in flows:
            errors.append(_window_sup(graded_state - twin_state, rows))
    except FloatingPointError:  # out of double range: inf from here on
        errors += [math.inf] * (len(steps) - len(errors))
    records = [{"t": t, "error": error, "bound": 5.0 * stencil_residual * t}
               for t, error in zip(times, errors)]
    return {"n": n, "stencil_residual": stencil_residual, "records": records}


def derivative_identity_residuals(u: FunctionHandle, delta: Order,
                                  xi_points) -> tuple:
    """Chain-rule consistency of the two derivative routes.

    Left route: the library's order-delta derivative of u, once and twice
    (`conf_derivative`, `conf_derivative_iterated`), at the graded point
    x = xi**(1/delta) > 0.  Right route: delta times the analytic derivative
    of the stretched profile w(xi) = u(xi**(1/delta)); the second-order
    version carries delta**2.  Both routes use analytic derivatives only,
    so u must declare both.
    """
    d = delta.delta
    xi = np.asarray(xi_points, dtype=float)
    x = pow_arr(xi, 1.0 / d)
    left1 = conf_derivative(u, delta, x)
    left2 = conf_derivative_iterated(u, delta, 2, x)
    dx1 = (1.0 / d) * pow_arr(xi, 1.0 / d - 1.0)
    dx2 = (1.0 / d) * (1.0 / d - 1.0) * pow_arr(xi, 1.0 / d - 2.0)
    right1 = d * (u.classical_derivative(x) * dx1)
    right2 = d * d * (u.second_derivative(x) * dx1 ** 2
                      + u.classical_derivative(x) * dx2)
    return tuple(float(np.max(np.abs(left - right)
                              / np.maximum(np.abs(left), 1e-30)))
                 for left, right in ((left1, right1), (left2, right2)))
