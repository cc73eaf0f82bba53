"""Finite-dimensional evolution backends and their verification battery.

A generator matrix A, together with a scalar-weighted discrete inner
product, defines the classical flow exp(sA).  Pairing that flow with the
clock of an order delta gives the rescaled family S(t) = exp(psi(t) A).
This module evaluates both, the composition law in the rescaled time,
difference-quotient reconstructions of the generator, an independent
adaptive Runge-Kutta orbit for the singular ODE x'(t) = t**(delta-1) A x(t),
and the dissipativity / resolvent / contraction battery for negative
generators.

A tridiagonal generator may carry eigenpairs in one representation,
A = D V diag(lam) V^T D^-1 with D = diag(d), d > 0 and V orthogonal; a
symmetric A is the case d = 1.  They come in closed form for a
tridiagonal Toeplitz A (_toeplitz_eigenpairs: the Dirichlet Laplacian,
the clamped drift-diffusion twin) or, for a tridiagonal A whose
off-diagonal products are all positive, from the symmetric tridiagonal
eigensolver (_tridiagonal_eigenpairs; the clamped graded drift-diffusion
operator).  They are checked against the entries once, when the generator
is built, and certified when the defect, scaled by the condition
d_max / d_min of D, stays at rounding.  Every flow is one call of _flow,
at one time or at a vector of times for a stack of states, with nothing
kept between calls: evolve_classical makes one, the composition law two,
the drift-diffusion evolution comparison one per step.  A generator built
with eigenbasis_flow (the two clamped drift-diffusion operators) flows in
its eigenbasis when certified,
exp(sA) x = d * V (exp(s lam) * V^T (x / d)); every other one (the
fixtures, the Dirichlet Laplacian among them, an operator whose
similarity is too ill-conditioned) flows by expm on the entries, the
batched scaling and squaring of Al-Mohy and Higham (SIMAX 31, 2009) in
_expm, one stacked call for all the times of a call and one stacked
product with their states.  A state that would leave
double range raises FloatingPointError instead.  The resolvent and
contraction bounds need d = 1: S(t) = exp(psi(t) A) is the classical flow
on a new clock, so for a symmetric A its norm is max_k exp(psi(t) lam_k)
and the resolvent norm is max_k 1/(lam - lam_k).  The independent routes
they are read against work on the entries: the Hermitian-part margin
(bisection on the bands of a tridiagonal A, dense eigvalsh otherwise) and
the pointwise resolvent products, from the bands.  Every tridiagonal
operator has one band layout, read by _bands, scattered by _band_dense
and applied by _band_apply (Golub and Van Loan, Matrix Computations, 1.2).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg import bandwidth, eigh_tridiagonal, eigvalsh_tridiagonal

from ._expm import expm
from .clock import Order

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
    "strong_continuity_check",
]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Square generator with a scalar-weighted inner product.

    The weight w defines <x, y> = w sum_i x_i conj(y_i); every norm in this
    module is taken in that inner product.  One weight for every node scales
    all vector norms alike, so an operator norm in it is the Euclidean one.

    Real entries are stored as float64 and complex entries as complex128, so
    the dense flow of a real generator is exponentiated in real arithmetic
    (expm keeps the dtype of its stack).  State vectors stay complex; a
    real matrix applied to one gives the same flow.

    eigenpairs, when given, is (lam, V, d): real eigenvalues, an orthogonal
    V and a positive diagonal similarity d with A = D V diag(lam) V^T D^-1,
    for entries of bandwidth at most (1, 1); anything else raises
    ValueError.  They are held against entries once, here, and kept as
    spectrum, eigvecs and similarity;
    spectral_defect is the larger of ||D^-1 A D V - V diag(lam)||_max /
    max|lam| and ||V^T V - I||_max.  The pairs are certified when
    condition(d) * spectral_defect <= _DEFECT_ULPS eps (n + 1), with
    condition(d) = max d / min d: eigenvector error grows with the
    conditioning of the basis (Bauer-Fike).  Without eigenpairs the four
    are None and certified is False.

    eigenbasis_flow asks _flow (and so evolve_classical) to run this
    generator in its eigenbasis; it needs eigenpairs and takes effect only
    while they are certified.  Left False, the pairs serve the norm bounds
    alone and the flow stays dense.
    """

    entries: np.ndarray
    weight: float
    label: str = ""
    eigenpairs: InitVar[tuple | None] = None
    eigenbasis_flow: bool = field(default=False, repr=False, compare=False)
    spectrum: np.ndarray | None = field(init=False, repr=False, compare=False)
    eigvecs: np.ndarray | None = field(init=False, repr=False, compare=False)
    similarity: np.ndarray | None = field(init=False, repr=False,
                                          compare=False)
    spectral_defect: float | None = field(init=False, repr=False,
                                          compare=False)
    certified: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, eigenpairs) -> None:
        entries = np.asarray(self.entries)
        entries = entries.astype(
            complex if np.iscomplexobj(entries) else float, copy=False)
        weight = float(self.weight)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("need at least one state dimension")
        if not 0.0 < weight < math.inf:
            raise ValueError(f"weight must be finite and positive, got {weight}")
        if not np.all(np.isfinite(entries)):
            raise FloatingPointError("generator has non-finite entries")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weight", weight)
        spectrum = vecs = scale = defect = None
        certified = False
        if self.eigenbasis_flow and eigenpairs is None:
            raise ValueError("eigenbasis_flow needs eigenpairs")
        if eigenpairs is not None:
            n = entries.shape[0]
            band = bandwidth(entries)
            if max(band) > 1:
                raise ValueError("eigenpairs need a tridiagonal generator, "
                                 f"got bandwidth {band}")
            arrays = [np.asarray(a) for a in eigenpairs]
            if (len(arrays) != 3
                    or [a.shape for a in arrays] != [(n,), (n, n), (n,)]
                    or any(np.iscomplexobj(a) for a in arrays)):
                raise ValueError(
                    f"eigenpairs need real arrays (lam, V, d) of shapes "
                    f"({n},), ({n}, {n}) and ({n},), got "
                    + ", ".join(f"{a.dtype} {a.shape}" for a in arrays))
            spectrum, vecs, scale = arrays
            if not all(np.all(np.isfinite(a)) for a in (spectrum, vecs, scale)):
                raise FloatingPointError("eigenpairs have non-finite entries")
            if not np.all(scale > 0.0):
                raise ValueError("the similarity d must be positive")
            defect = _spectral_defect(entries, spectrum, vecs, scale)
            condition = float(np.max(scale) / np.min(scale))
            certified = (condition * defect
                         <= _DEFECT_ULPS * np.finfo(float).eps * (n + 1))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "eigvecs", vecs)
        object.__setattr__(self, "similarity", scale)
        object.__setattr__(self, "spectral_defect", defect)
        object.__setattr__(self, "certified", certified)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def w_norm(self, x: np.ndarray) -> float:
        x = np.asarray(x)
        return float(np.sqrt(np.sum(self.weight * np.abs(x) ** 2).real))


# eigenpairs farther than this many eps (n + 1) from their entries, after
# scaling by the condition of the similarity, certify nothing; the
# closed-form Laplacian pairs sit below 0.3 eps (n + 1)
_DEFECT_ULPS = 8.0


def _bands(entries: np.ndarray) -> np.ndarray:
    """The (3, n) bands (sub, diagonal, super) of a tridiagonal matrix in the
    layout of _band_apply, the ghost entries w[0, 0] and w[2, n - 1] 0."""
    return np.stack([np.pad(np.diagonal(entries, k), (max(-k, 0), max(k, 0)))
                     for k in (-1, 0, 1)])


def _band_dense(w: np.ndarray) -> np.ndarray:
    """The n x n matrix of the (3, n) bands w, the ghost entries dropped."""
    n = w.shape[1]
    dense = np.zeros((n, n), dtype=w.dtype)
    # added to zeros, through a flat view, so a -0.0 weight lands as 0.0
    flat = dense.reshape(-1)
    flat[n::n + 1] += w[0, 1:]
    flat[::n + 1] += w[1]
    flat[1::n + 1] += w[2, :-1]
    return dense


def _band_apply(w: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The bands w times a real or complex vector or (n, m) block: row i is
    w[0, i] block[i - 1] + w[1, i] block[i] + w[2, i] block[i + 1], summed
    in that order, with the ghost values block[-1] and block[n] 0."""
    w = w.reshape(w.shape + (1,) * (block.ndim - 1))
    out = w[1] * block
    out[1:] += w[0, 1:] * block[:-1]
    out[:-1] += w[2, :-1] * block[1:]
    return out


def _spectral_defect(entries: np.ndarray, spectrum: np.ndarray,
                     vecs: np.ndarray, scale: np.ndarray) -> float:
    """max(||D^-1 A D V - V diag(lam)||_max / max|lam|, ||V^T V - I||_max)
    with D = diag(scale); a zero spectrum is measured absolutely.

    The tridiagonal A is applied from its bands, in O(n^2).
    """
    top = float(np.max(np.abs(spectrum))) or 1.0
    # D^-1 A D keeps the diagonal and scales the off-diagonals by the ratios
    # of neighbouring d
    w = _bands(entries)
    ratio = scale[1:] / scale[:-1]
    w[0, 1:] /= ratio
    w[2, :-1] *= ratio
    residual = _band_apply(w, vecs) - vecs * spectrum
    return max(float(np.max(np.abs(residual))) / top,
               _orthogonality_defect(vecs))


def _orthogonality_defect(vecs: np.ndarray) -> float:
    """||V^T V - I||_max; the cached sine basis reuses the defect measured
    when it was built."""
    cached = _SINE_BASES.get(len(vecs))
    if cached is not None and vecs is cached[0]:
        return cached[1]
    gram = vecs.T @ vecs
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram)))


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


# largest exponent whose exp is a finite double
_LOG_MAX = math.log(np.finfo(float).max)


def _eigenbasis_flow(g: GeneratorMatrix, s: float, x: np.ndarray) -> np.ndarray:
    """d * V (exp(s lam) * V^T (x / d)) for a vector or a block of columns x,
    in x's dtype (real or complex).

    A complex x is viewed as one real block, its real and imaginary parts in
    alternate columns, so the real basis is never cast to complex.  Raises
    FloatingPointError before exp(s lam) leaves double range, and when a
    product does, instead of returning inf or nan.
    """
    top = s * float(np.max(g.spectrum))
    if top > _LOG_MAX:
        raise FloatingPointError(
            f"exp(s lam) overflows at s={s}: s max(lam) = {top:.6g}")
    scale = g.similarity[:, None]
    cols = x.reshape(len(x), -1) / scale
    with np.errstate(over="raise", invalid="raise"):
        real = g.eigvecs @ (np.exp(s * g.spectrum)[:, None]
                            * (g.eigvecs.T @ cols.view(float)))
        return (real.view(cols.dtype) * scale).reshape(x.shape)


def _flow(g: GeneratorMatrix, s, x: np.ndarray) -> np.ndarray:
    """exp(sA) x, A = g.entries, for one time s and a vector or block of
    columns x; or, for a vector of times s, the stack of exp(s_k A) x_k, x
    a stack of states with one row per time.

    A real x under a real A stays real.  The flow runs in g's eigenbasis
    when g asks for that (eigenbasis_flow) and its eigenpairs are
    certified, one _eigenbasis_flow per time; else by the batched dense
    expm (any square A): one stacked call over the distinct nonzero times
    (np.unique, which also maps each state to its time's flow), and one
    stacked product of those flows with their states.  Each flow
    applies to its own state, so a row of a stack gets the bits a lone
    state would.  A zero time leaves a copy.  Raises FloatingPointError,
    with no RuntimeWarning before it, instead of returning a non-finite
    state.
    """
    times = np.ravel(s).tolist()
    rows = x if np.ndim(s) else x[None]
    moving = [i for i, t in enumerate(times) if t != 0.0]
    out = rows.copy()
    # refused below, not warned of (_eigenbasis_flow sets its own state)
    with np.errstate(over="ignore", invalid="ignore"):
        if g.eigenbasis_flow and g.certified:
            for i in moving:
                out[i] = _eigenbasis_flow(g, times[i], rows[i])
        elif moving:
            new, which = np.unique([times[i] for i in moving],
                                   return_inverse=True)
            flows = expm(new[:, None, None] * g.entries)[which]
            states = rows[moving]
            out = out.astype(np.result_type(flows, out), copy=False)
            out[moving] = (flows @ states[..., None])[..., 0] \
                if states.ndim == 2 else flows @ states
    x = out if np.ndim(s) else out[0]
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(
            f"evolution produced non-finite state at s={s}")
    return x


def evolve_classical(g: GeneratorMatrix, s, x: np.ndarray) -> np.ndarray:
    """exp(sA) x for a vector or a block of columns x, as a complex array.

    For a 1-D array of times s, the stack of exp(s_k A) x, one row per
    time, from one call of _flow.
    """
    if np.any(np.asarray(s) < 0.0):
        raise ValueError(f"classical time must be nonnegative, got {s}")
    x = np.asarray(x, dtype=complex)
    if np.ndim(s):
        x = np.broadcast_to(x, (len(s), *x.shape))
    return _flow(g, s, x)


@dataclass(frozen=True)
class ConformableSemigroup:
    """The rescaled family: evolve(t, x) = exp(psi(t) A) x."""

    generator: GeneratorMatrix
    order: Order

    def evolve(self, t, x: np.ndarray) -> np.ndarray:
        """exp(psi(t) A) x; for a 1-D array of times t, one row per time
        (see evolve_classical), each time through the clock's float path."""
        if np.ndim(t):
            return evolve_classical(
                self.generator, np.array([self.order.psi(float(v)) for v in t]),
                x)
        return evolve_classical(self.generator, self.order.psi(t), x)


def delta_law_residual(cs: ConformableSemigroup, r, q, x: np.ndarray):
    """Composition-law defect in the rescaled time variable.

    Compares the one-shot evolution at (r+q)**(1/delta) with the two-step
    evolution at q**(1/delta) then r**(1/delta), in the weighted norm.  r
    and q may be arrays of pairs, which give one defect per pair: one _flow
    call takes a stack of rows to (r+q)**(1/delta) and q**(1/delta), and a
    second takes the latter on by r**(1/delta).  Scalar r and q give a float.
    """
    r, q = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(q, dtype=float))
    if np.any(r < 0.0) or np.any(q < 0.0):
        raise ValueError("law arguments must be nonnegative")
    d, psi = cs.order.delta, cs.order.psi
    pairs = list(zip(r.ravel().tolist(), q.ravel().tolist()))
    m = len(pairs)
    one_shot = [psi((a + b) ** (1.0 / d)) for a, b in pairs]
    first = [psi(b ** (1.0 / d)) for _, b in pairs]
    second = [psi(a ** (1.0 / d)) for a, _ in pairs]
    x, g = np.asarray(x, dtype=complex), cs.generator
    flowed = _flow(g, np.array(one_shot + first),
                   np.broadcast_to(x, (2 * m, *x.shape)))
    twice = _flow(g, np.array(second), flowed[m:])
    gaps = np.abs(flowed[:m] - twice) ** 2
    defects = np.sqrt(np.sum(g.weight * gaps,
                             axis=tuple(range(1, gaps.ndim))))
    return float(defects[0]) if r.ndim == 0 else defects.reshape(r.shape)


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
    if np.any(t_seq <= 0.0) or np.any(np.diff(t_seq) >= 0.0):
        raise ValueError("t_seq must be positive and strictly decreasing")
    limit = classical_generator_quotient(cs.generator, x, cs.order.psi(t_seq))
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
    quotients = [(state - x) / s
                 for state, s in zip(evolve_classical(g, s_seq, x), s_seq)]
    return neville_extrapolate(s_seq, quotients)


@dataclass(frozen=True)
class OrbitSample:
    """States along an orbit with their weighted norms."""

    times: np.ndarray
    states: list
    norms: np.ndarray


# Dormand-Prince 5(4) tableau, stages as the rows of a lower-triangular
# array.  scipy.integrate.solve_ivp(method="RK45") steps the same pair to the
# same accuracy, but importing scipy.integrate costs the command line more
# start-up time than a default run spends in all its orbit solves; so the
# stepper is written out, and for the linear orbit ODE each step is one
# polynomial in A (_dp_polynomial_table) instead of six right-hand sides.
# The last row of _DP_A is _DP_B5: the seventh stage is taken at the
# fifth-order solution, and only the error estimate reads it.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _dp_chains(a: list, i: int):
    """Yield each descending chain of stages (j1, ..., jm), j1 < i, with its
    weight a[i][j1] a[j1][j2] ... a[j(m-1)][jm], a = _DP_A.tolist() (plain
    floats walk faster than numpy scalars); the empty chain first."""
    yield (), 1.0
    for j, a_ij in enumerate(a[i][:i]):
        if a_ij:
            for chain, w in _dp_chains(a, j):
                yield (j,) + chain, a_ij * w


def _dp_polynomial_table():
    """The (2, 8, K) table T and (K,) node sums of one Dormand-Prince step
    of the linear ODE dx/dtau = exp(delta tau) A x.

    Stage i sits at tau + c_i step, so with q = step exp(delta tau) and
    sigma_j = exp(delta c_j step) it reads x_i = x + sum_j a_ij sigma_j qA x_j:
    a polynomial in qA, one term (qA)^m per chain of m stages, weighted by
    the chain's a-products and by exp(delta step csum), csum the chain's
    sum of nodes.  Row 0 holds the fifth-order solution x_6, row 1 the
    error estimate sum_i e_i sigma_i qA x_i; a column is one of the K = 124
    chains, so T @ exp(delta step csum) gives the coefficients of
    (qA)^0 ... (qA)^7 in both.
    """
    a, c = _DP_A.tolist(), _DP_C.tolist()
    rows = [list(_dp_chains(a, 6)),
            [((i,) + chain, e_i * w) for i, e_i in enumerate(_DP_E.tolist())
             if e_i for chain, w in _dp_chains(a, i)]]
    columns = list(dict.fromkeys(chain for row in rows for chain, _ in row))
    index = {chain: k for k, chain in enumerate(columns)}
    table = np.zeros((2, 8, len(columns)))
    for r, row in enumerate(rows):
        for chain, w in row:
            table[r, len(chain), index[chain]] = w
    csum = np.array([sum(c[j] for j in chain) for chain in columns])
    return table, csum


_DP_TABLE, _DP_CSUM = _dp_polynomial_table()
_DP_DEGREES = np.arange(8.0)

# accepted and rejected steps one advance may take before it gives up
_RK45_MAX_STEPS = 500_000


def _dp_coefficients(delta_step: float, q_nu: float) -> np.ndarray:
    """(2, 8) coefficients of (A / nu)^0 ... (A / nu)^7 in the new state (row
    0) and the error estimate (row 1) of one step, q_nu = q nu."""
    return (_DP_TABLE @ np.exp(delta_step * _DP_CSUM)) * q_nu ** _DP_DEGREES


def _rk45_advance(powers: np.ndarray, nu: float, delta: float, t: float,
                  x: np.ndarray, t_target: float, h: float, rtol: float,
                  atol: float):
    """Integrate dx/dt = exp(delta t) A x from (t, x) to t_target with
    embedded Dormand-Prince 5(4) steps.

    powers is the (8, n, n) stack of (A / nu)^m, m = 0 ... 7, so none can
    overflow.  Each attempted step is one polynomial in A: the Krylov block
    powers @ x, formed at the start and after each accepted step short of
    t_target (a rejected step reuses it), times _dp_coefficients, which
    folds nu^m into the scalars; the block keeps x's dtype.  h is the step
    to try first; returns (x at t_target, the step to try next), where a
    last step cut short at t_target hands on the step it was cut from.  The
    error norm is the RMS of |err| / (atol + rtol * max(|x|, |x_new|)); a
    non-finite error counts as a rejection at the smallest step factor, so
    a state that leaves double range ends in step-size underflow, with no
    RuntimeWarning.  t is ln of the orbit's time, so the FloatingPointError
    of a step-size underflow or of an exhausted step budget names exp(t).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        krylov = powers @ x
        steps = 0
        while t < t_target:
            if h < 1e-14 * abs(t):
                raise FloatingPointError(
                    f"step size underflow at t={math.exp(t)}")
            last = h >= t_target - t
            step = t_target - t if last else h
            x_new, err_vec = _dp_coefficients(
                delta * step, step * math.exp(delta * t) * nu) @ krylov
            ratio = np.abs(err_vec) / (atol + rtol * np.maximum(np.abs(x),
                                                                 np.abs(x_new)))
            err = math.sqrt(ratio @ ratio / ratio.size)
            if math.isnan(err):
                err = math.inf
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0.0 else 5.0))
            if err <= 1.0:
                t, x = (t_target if last else t + step), x_new
                if not last:
                    krylov = powers @ x
            if err > 1.0 or step == h:
                h = step * factor
            steps += 1
            if steps > _RK45_MAX_STEPS:
                raise FloatingPointError(
                    f"step budget exhausted at t={math.exp(t)}")
    return x, h


def solve_conformable_ode(g: GeneratorMatrix, delta: Order, x0: np.ndarray,
                          t_end: float, rtol: float = 1e-9, atol: float = 1e-12,
                          n_out: int = 21) -> OrbitSample:
    """Independent orbit of x'(t) = t**(delta-1) A x(t) on a fixed grid.

    A hand-rolled adaptive Dormand-Prince 5(4) stepper integrates
    dx/dtau = exp(delta tau) A x in tau = ln t, free of the singularity at
    t = 0, of the clock and of the flow, from x0 at tau0 =
    ln(delta 2**-56 / ||A||_1) / delta, before which the flow moves x0 by
    under eps / 16: outputs with ln t <= tau0 (t = 0; all, for A = 0) are
    x0.  Each step is one polynomial in A applied to the powers
    (A / nu)^m x, nu the power of two just above ||A||_1 (_rk45_advance).
    The step starts at (ln t1 - tau0) / 100, t1 the first output past
    tau0, and carries across outputs.  A real A and x0 step in float64,
    states come back complex, and a FloatingPointError names t.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    d = delta.delta
    x0 = np.asarray(x0, dtype=complex)
    norm = max(float(np.linalg.norm(g.entries, 1)), np.finfo(float).tiny)
    tau = math.log(d * 2.0 ** -56 / norm) / d
    # a power of two scales A exactly
    nu = math.ldexp(1.0, math.frexp(norm)[1])
    scaled = g.entries / nu
    powers = [np.eye(g.dim, dtype=scaled.dtype)]
    for _ in range(7):
        powers.append(powers[-1] @ scaled)
    powers = np.stack(powers)

    times = np.linspace(0.0, t_end, n_out)
    states = []
    x = x0.real.copy() if np.isrealobj(g.entries) and not x0.imag.any() else x0
    h = None
    for t in times:
        target = math.log(t) if t > 0.0 else -math.inf
        if target > tau:
            h = h or (target - tau) / 100.0
            x, h = _rk45_advance(powers, nu, d, tau, x, target, h, rtol, atol)
            tau = target
        states.append(x.astype(complex))
    norms = np.array([g.w_norm(s) for s in states])
    return OrbitSample(times=times, states=states, norms=norms)


# bisection runs until its interval is a few ulps of the eigenvalue itself
# (LAPACK's most accurate setting, 2 dlamch('S')); the default stops at an
# interval of eps ||T||_1, about 6e-12 relative at the top of the n = 256
# Laplacian, wider than the 1e-12 its closed-form test allows
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


def dissipativity_margin(g: GeneratorMatrix) -> float:
    """Largest Rayleigh quotient Re<Ax, x> over unit weighted-norm x.

    The scalar weight cancels from the quotient, so this is the top
    eigenvalue of the Hermitian part (A + A^H) / 2; a nonpositive value
    certifies discrete dissipativity.  A tridiagonal A has a tridiagonal
    Hermitian part, whose top eigenvalue comes from bisection on its
    diagonals, with no n x n array; any other A goes through the dense
    eigvalsh.
    """
    a = g.entries
    if bandwidth(a) == (1, 1):
        sub, diag, sup = _bands(a)
        # a diagonal unitary similarity takes each off-diagonal entry to its
        # modulus, so the real symmetric band has the same spectrum
        off = np.abs(0.5 * (sup[:-1] + sub[1:].conj()))
        top = g.dim - 1
        return float(eigvalsh_tridiagonal(
            diag.real, off, select="i", select_range=(top, top),
            tol=_BISECTION_TOL)[0])
    sym = 0.5 * (a + a.conj().T)
    return float(np.max(np.linalg.eigvalsh(sym)))


# seeded random vectors probing the pointwise resolvent lower bound
_RESOLVENT_PROBES = 200
# eigenvectors of the top of the spectrum added to the probes: the bound is
# tight there, while random vectors sit on the high modes
_MODE_PROBES = 4


def _closed_form_margin(g: GeneratorMatrix, void: str) -> float:
    """Largest eigenvalue of g's closed-form spectrum.

    Raises ValueError when g carries no eigenpairs, when its eigenbasis is
    not orthogonal (a similarity d other than 1: the norms below are those
    of a symmetric A), or when the spectrum is not dissipative (margin
    above 1e-12), naming what is then void.
    """
    if g.spectrum is None:
        raise ValueError(f"generator {g.label!r} carries no eigenpairs; "
                         "the bound is measured in its eigenbasis")
    if np.any(g.similarity != 1.0):
        raise ValueError(f"generator {g.label!r} has a similarity d other "
                         "than 1; the bound needs an orthogonal eigenbasis")
    margin = float(np.max(g.spectrum))
    if margin > 1e-12:
        raise ValueError(
            f"generator is not dissipative (margin {margin:.3e}); {void}")
    return margin


def _certified(excess: float, g: GeneratorMatrix) -> float:
    """excess, or inf when g's eigenpairs are not certified: eigenpairs
    that do not match the entries certify nothing."""
    return excess if g.certified else math.inf


def resolvent_bound_check(g: GeneratorMatrix, lam: float,
                          seed: int = 0) -> tuple:
    """Shifted-inverse norm bound for a symmetric dissipative generator.

    Measures by how much lam times the weighted operator norm of
    (lam I - A)^-1, max_k lam / (lam - lam_k) in g's eigenbasis, exceeds
    one, and by how much the pointwise lower bound
    ||(lam I - A) x|| >= lam ||x|| is violated on seeded random vectors and
    on the eigenvectors of the _MODE_PROBES largest eigenvalues, multiplied
    by the bands of the tridiagonal A.  Returns
    (residual, params); the residual is the larger relative excess (inf for
    mismatched eigenpairs, see _certified), at most 0 when the bound holds.
    """
    if lam <= 0.0:
        raise ValueError(f"shift must be positive, got {lam}")
    margin = _closed_form_margin(g, "bound is void")
    n = g.dim
    norm_excess = lam * float(np.max(1.0 / (lam - g.spectrum))) - 1.0
    # real probes suffice: for a real A, ||(lam - A)(u + iv)||^2 is
    # ||(lam - A)u||^2 + ||(lam - A)v||^2, so a complex probe u + iv never
    # violates the bound by more than the worse of u and v
    probes = np.hstack((
        np.random.default_rng(seed).standard_normal((_RESOLVENT_PROBES, n)).T,
        g.eigvecs[:, np.argsort(g.spectrum)[-_MODE_PROBES:]]))
    shift = -_bands(g.entries)
    shift[1] += lam
    shifted = _band_apply(shift, probes)
    lhs = np.sqrt(np.sum(g.weight * np.abs(shifted) ** 2, axis=0))
    rhs_val = lam * np.sqrt(np.sum(g.weight * np.abs(probes) ** 2, axis=0))
    lower_excess = float(np.max((rhs_val - lhs) / rhs_val, initial=-np.inf))
    return _certified(max(norm_excess, lower_excess), g), {
        "lambda": lam, "n": n, "norm_excess": norm_excess,
        "lower_excess": lower_excess, "margin": margin,
        "spectral_defect": g.spectral_defect}


def contraction_check(cs: ConformableSemigroup, t_grid) -> tuple:
    """Operator norms of the rescaled flow of a symmetric dissipative
    generator stay at or below one.

    In the eigenbasis the norm at time t is max_k exp(psi(t) lam_k) =
    exp(psi(t) margin).  Returns (residual, params), the residual being the
    worst excess of a norm over one on t_grid (inf for mismatched
    eigenpairs, see _certified).
    """
    g = cs.generator
    margin = _closed_form_margin(g, "contraction is not implied")
    norms = {f"t={t}": math.exp(cs.order.psi(t) * margin) for t in t_grid}
    worst = max(norms.values()) - 1.0
    return _certified(worst, g), {
        "delta": cs.order.delta, "margin": margin,
        "spectral_defect": g.spectral_defect, **norms}


def dirichlet_second_difference(n: int) -> GeneratorMatrix:
    """Second-difference matrix on n interior nodes, both ends clamped,
    with the uniform-mesh inner product (weight h per node).

    Its eigenpairs are closed-form (_toeplitz_eigenpairs at a = 1,
    b = c = 0), with d = 1.  They serve the resolvent and contraction
    bounds, which flow nothing.  Its flow stays dense (eigenbasis_flow is
    left False) only because perfbench's tracer test expects an expm span
    from it.
    """
    if n < 2:
        raise ValueError("need n >= 2 interior nodes")
    h = 1.0 / (n + 1)
    entries = _band_dense(np.tile([[1.0], [-2.0], [1.0]], n) / h ** 2)
    return GeneratorMatrix(entries=entries, weight=h,
                           label=f"dirichlet_laplacian[n={n}]",
                           eigenpairs=_toeplitz_eigenpairs(1.0, 0.0, 0.0, n))


def _toeplitz_eigenpairs(a: float, b: float, c: float, n: int):
    """(lam, V, d) of a D2 + b D1 + c on n interior nodes of the uniform
    mesh h = 1/(n + 1), both ends clamped (centred differences), or None.

    The operator is tridiagonal Toeplitz with off-diagonals
    sub = a/h^2 - b/(2h) and sup = a/h^2 + b/(2h).  When both are positive
    (cell Peclet number b h / (2a) below 1), d_j = rho**j with
    rho = sqrt(sub/sup) makes it symmetric, with the cached sine basis as
    eigenvectors and the eigenvalues
    lam_k = c - 2a/h^2 + 2 sqrt(sub sup) cos(k pi h), written here as
    c - (b/h)^2 / (2(a/h^2 + sqrt(sub sup))) - 4 sqrt(sub sup) sin^2(k pi h/2)
    so that the top of the spectrum suffers no cancellation.  At b = 0, d is
    all ones.  None when sub <= 0 or rho**(n-1) underflows to 0.
    """
    h = 1.0 / (n + 1)
    diffusion, drift = a / h ** 2, b / (2.0 * h)
    sub, sup = diffusion - drift, diffusion + drift
    if not (sub > 0.0 and sup > 0.0):
        return None
    scale = np.sqrt(sub / sup) ** np.arange(n)
    if scale[-1] == 0.0:
        return None
    root = np.sqrt(sub * sup)
    k = np.arange(1, n + 1)
    spectrum = (c - 2.0 * drift ** 2 / (diffusion + root)
                - 4.0 * root * np.sin(0.5 * np.pi * h * k) ** 2)
    return spectrum, _sine_basis(n)[0], scale


def _tridiagonal_eigenpairs(entries: np.ndarray):
    """(lam, V, d) of a real tridiagonal A, or None.

    When every product A[j, j+1] A[j+1, j] is positive, the similarity
    d_0 = 1, d_{j+1} / d_j = sqrt(A[j+1, j] / A[j, j+1]) makes D^-1 A D
    symmetric tridiagonal, with A's diagonal and the off-diagonal
    sqrt(A[j, j+1] A[j+1, j]); eigh_tridiagonal gives its pairs in O(n^2).
    None when a product is <= 0 or d leaves double range.
    """
    w = _bands(entries)
    sub, sup = w[0, 1:], w[2, :-1]
    products = sup * sub
    if not np.all(products > 0.0):
        return None
    with np.errstate(over="ignore"):
        scale = np.cumprod(np.concatenate(([1.0], np.sqrt(sub / sup))))
    if not np.all((scale > 0.0) & np.isfinite(scale)):
        return None
    spectrum, vecs = eigh_tridiagonal(w[1], np.sqrt(products))
    return spectrum, vecs, scale


# the sine basis of each size n built so far, as (V, ||V^T V - I||_max)
_SINE_BASES: dict[int, tuple[np.ndarray, float]] = {}


def _sine_basis(n: int) -> tuple:
    """(V, ||V^T V - I||_max) for the orthonormal sine vectors
    V_jk = sqrt(2h) sin(j k pi h), j, k = 1..n (the discrete sine transform),
    built and checked once per n; V is read-only and shared by every
    generator of that size that carries it."""
    if n not in _SINE_BASES:
        h = 1.0 / (n + 1)
        k = np.arange(1, n + 1)
        # j k reduced mod 2(n + 1) keeps every sine argument in [0, 2 pi)
        vecs = np.sqrt(2.0 * h) * np.sin(
            np.pi * h * (np.outer(k, k) % (2 * (n + 1))))
        defect = _orthogonality_defect(vecs)
        vecs.flags.writeable = False
        _SINE_BASES[n] = (vecs, defect)
    return _SINE_BASES[n]


def strong_continuity_check(cs: ConformableSemigroup, x: np.ndarray) -> tuple:
    """Small-time behaviour of ||S(t)x - x|| on the dyadic grid t = 2**-k,
    k = 4..20.

    Fits the slope C = max of gap/psi(t) and holds it against the weighted
    norm of A x (first-order bound).  Returns (residual, params), the
    residual being their relative deviation, plus 1 unless the gaps
    decrease.
    """
    g = cs.generator
    x = np.asarray(x, dtype=complex)
    ts = [2.0 ** -k for k in range(4, 21)]
    gaps = np.array([g.w_norm(state - x) for state in cs.evolve(ts, x)])
    psis = cs.order.psi(np.array(ts))
    slope = float(np.max(gaps / psis))
    generator_norm = g.w_norm(g.entries @ x)
    decreasing = bool(np.all(np.diff(gaps) < 0.0))
    rel_dev = abs(slope - generator_norm) / generator_norm
    return rel_dev + (0.0 if decreasing else 1.0), {
        "generator": g.label,
        "delta": cs.order.delta,
        "slope": slope,
        "generator_norm": generator_norm,
        "decreasing": decreasing,
    }
