"""Spectral hypothesis probes and dynamical witness checks.

The drift-diffusion eigenfunction family is entire in the spectral value,
so its discrete residuals, contour means, and Gram determinants make the
abstract hypotheses behind spectral dichotomies numerically checkable.  The
witness probes below exercise the three standard invariant-regime examples:
decaying modes, backward-launched unstable modes, and rotating pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .clock import Clock, Order
from .drift_diffusion import (DriftDiffusionParams, EigenfunctionFamily,
                              GridPair, _assemble_classical, spectral_evolve)
from .semigroup import ConformableSemigroup, GeneratorMatrix, evolve_classical

__all__ = [
    "LambdaRectangle",
    "DSWReport",
    "dsw_condition_check",
    "dsw_hypotheses_probe",
    "clock_invariance_check",
    "x0_probe",
    "xinf_probe",
    "periodic_orbit_check",
]

# fixed test profiles for the contour-analyticity functionals
_FUNCTIONALS = (
    ("sine", lambda xi: np.sin(np.pi * xi)),
    ("parabola", lambda xi: xi * (1.0 - xi)),
    ("exp_decay", lambda xi: np.exp(-xi)),
)
# radius of the contour means; each is also taken at half this radius
_CONTOUR_RADIUS = 0.1


@dataclass(frozen=True)
class LambdaRectangle:
    """Axis-aligned sampling rectangle in the spectral plane.

    Sampled on an n_re x n_im grid; the probe needs at least 9 points and
    at least one sample on the imaginary axis.
    """

    center: complex
    re_half: float
    im_half: float
    n_re: int = 3
    n_im: int = 3

    def __post_init__(self) -> None:
        if self.re_half < 0.0 or self.im_half < 0.0:
            raise ValueError("half-extents must be nonnegative")
        if self.n_re * self.n_im < 9:
            raise ValueError(
                f"need at least 9 sample points, got {self.n_re * self.n_im}")
        if not any(abs(lam.real) <= 1e-12 for lam in self.samples()):
            raise ValueError("no sample point lies on the imaginary axis")

    def samples(self) -> list:
        res = np.linspace(self.center.real - self.re_half,
                          self.center.real + self.re_half, self.n_re)
        ims = np.linspace(self.center.imag - self.im_half,
                          self.center.imag + self.im_half, self.n_im)
        return [complex(r, i) for r in res for i in ims]

    def corners(self) -> list:
        return [complex(self.center.real + sr * self.re_half,
                        self.center.imag + si * self.im_half)
                for sr in (-1.0, 1.0) for si in (-1.0, 1.0)]


@dataclass
class DSWReport:
    """Everything the hypothesis probe measured, kept raw for reporting."""

    n: int
    h: float
    eigen_records: list = field(default_factory=list)
    imag_axis_records: list = field(default_factory=list)
    analyticity_records: list = field(default_factory=list)
    gram: dict = field(default_factory=dict)

    def worst_eigen_ratio(self) -> float:
        return max(rec["ratio"] for rec in self.eigen_records)

    def worst_analyticity(self) -> float:
        return max(rec["rel_residual"] for rec in self.analyticity_records)


def dsw_condition_check(p: DriftDiffusionParams) -> dict:
    """Coefficient inequality gating the dichotomy: c < b^2/(2a) < 1.

    The ratio is invariant under the parameter transfer, so raw and
    transferred coefficients give the same verdict.
    """
    ratio = p.b ** 2 / (2.0 * p.a)
    holds = (p.c < ratio) and (ratio < 1.0)
    return {
        "ratio": ratio,
        "reaction": p.c,
        "holds": holds,
        "lower_margin": ratio - p.c,
        "upper_margin": 1.0 - ratio,
    }


def _contour_mean(fam: EigenfunctionFamily, test_vals: np.ndarray,
                  xi: np.ndarray, h: float, center: complex, radius: float,
                  points: int = 16) -> complex:
    # trapezoid on the circle = exact mean for trig polynomials up to degree
    # points-1, far more than the truncation needs here
    total = 0.0 + 0.0j
    for k in range(points):
        lam = center + radius * cmath.exp(2j * math.pi * k / points)
        total += h * np.sum(test_vals * fam.evaluate(lam, xi))
    return total / points


def dsw_hypotheses_probe(fam: EigenfunctionFamily, rect: LambdaRectangle,
                         n: int = 256,
                         residual_factor: float = 10.0) -> DSWReport:
    """Probe the three checkable hypotheses on one spectral rectangle.

    For every sample the discrete eigen-residual on centered-stencil rows
    is measured against residual_factor * h^2 * sup|phi''''|; contour means
    of three fixed functionals are compared with their center values; and
    the Gram determinant of the normalized corner eigenfunctions is
    recorded for the caller to hold against its separation threshold.  A
    degenerate Gram (duplicated spectral values) is recorded, not raised.
    """
    grid = GridPair.build(n, Order(1.0))
    matrix = _assemble_classical(fam.diffusion, fam.drift, fam.reaction,
                                 grid, clamp_right=False)
    xi = grid.xi_nodes
    h = grid.h
    centered = slice(0, n - 1)  # last row is one-sided, excluded from the bound
    report = DSWReport(n=n, h=h)

    for lam in rect.samples():
        vec = fam.evaluate(lam, xi)
        residual = float(np.max(np.abs((matrix @ vec - lam * vec)[centered])))
        bound = residual_factor * h * h * fam.fourth_derivative_sup(lam)
        rec = {"lam": lam, "residual": residual, "bound": bound,
               "ratio": residual / bound}
        report.eigen_records.append(rec)
        if abs(lam.real) <= 1e-12:
            report.imag_axis_records.append(rec)

    for name, func in _FUNCTIONALS:
        test_vals = func(xi)
        for lam in rect.samples():
            center_val = complex(h * np.sum(test_vals * fam.evaluate(lam, xi)))
            mean = _contour_mean(fam, test_vals, xi, h, lam, _CONTOUR_RADIUS)
            mean_half = _contour_mean(fam, test_vals, xi, h, lam,
                                      _CONTOUR_RADIUS / 2.0)
            scale = max(abs(center_val), 1e-12)
            report.analyticity_records.append({
                "lam": lam, "functional": name,
                "radius": _CONTOUR_RADIUS,
                "rel_residual": abs(mean - center_val) / scale,
                "shrink_change": abs(mean - mean_half) / scale,
            })

    corners = rect.corners()
    duplicates = len({(round(l.real, 14), round(l.imag, 14)) for l in corners}) \
        != len(corners)
    vectors = []
    for lam in corners:
        vec = fam.evaluate(lam, xi).astype(complex)
        norm = math.sqrt(float(h * np.sum(np.abs(vec) ** 2)))
        if norm == 0.0:
            raise FloatingPointError(f"eigenfunction at {lam} vanished on the grid")
        vectors.append(vec / norm)
    stacked = np.array(vectors)
    gram = h * (np.conj(stacked) @ stacked.T)
    report.gram = {
        "lambdas": corners,
        "det": float(abs(np.linalg.det(gram))),
        "duplicate_values": duplicates,
    }
    return report


def clock_invariance_check(cs: ConformableSemigroup, x: np.ndarray,
                           s_list) -> tuple:
    """Transfer of orbit data through the clock, three items at once.

    (i) the rescaled flow at the pulled-back time matches the classical
    flow at the original time; (ii) displacement norms transfer with
    identical values; (iii) the two orbit norm sequences agree elementwise.
    Returns (residual, params), the residual being the worst of the three.
    """
    s_arr = [float(s) for s in s_list]
    if not s_arr or any(s <= 0.0 for s in s_arr):
        raise ValueError("need positive classical times")
    g = cs.generator
    x = np.asarray(x, dtype=complex)
    item_i = item_ii = item_iii = 0.0
    for s in s_arr:
        classical = evolve_classical(g, s, x)
        pulled = cs.evolve(cs.clock.psi_inv(s), x)
        ref = g.w_norm(classical)
        item_i = max(item_i, g.w_norm(pulled - classical) / (ref + 1e-300))
        disp_c = g.w_norm(classical - x)
        disp_p = g.w_norm(pulled - x)
        item_ii = max(item_ii, abs(disp_c - disp_p) / (1.0 + disp_c))
        item_iii = max(item_iii, abs(g.w_norm(pulled) - ref) / (1.0 + ref))
    return max(item_i, item_ii, item_iii), {
        "generator": g.label or "unnamed",
        "delta": cs.clock.delta,
        "s_list": s_arr,
        "flow_transfer": item_i,
        "displacement_transfer": item_ii,
        "norm_sequence": item_iii,
    }


def x0_probe(fam: EigenfunctionFamily, lam: complex, t_grid) -> dict:
    """Forward decay witness on a strictly stable mode.

    The modal coefficient is exp(lam t); the probe records how far its
    magnitude strays from exp(Re lam * t) and whether it decreases strictly
    along the grid.
    """
    if lam.real >= 0.0:
        raise ValueError(f"decay witness needs Re lam < 0, got {lam}")
    times = [float(t) for t in t_grid]
    if len(times) < 3 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("need at least 3 strictly increasing times")
    mags, errors = [], []
    for t in times:
        _, coeff = spectral_evolve(fam, [(lam, 1.0 + 0.0j)], t)[0]
        mag = abs(coeff)
        expected = math.exp(lam.real * t)
        mags.append(mag)
        errors.append(abs(mag - expected) / expected)
    return {
        "lam": lam,
        "times": times,
        "coefficient_errors": errors,
        "monotone_decay": all(b < a for a, b in zip(mags, mags[1:])),
        "worst_error": max(errors),
    }


def xinf_probe(fam: EigenfunctionFamily, lam: complex, eps: float,
               n: int = 256) -> dict:
    """Backward-launch witness on a strictly unstable mode.

    Seeds y = exp(-lam t*) phi with t* chosen so the seed norm is eps/2;
    flowing forward for t* should land back on phi.  Both clauses are
    recorded: the seed norm, to hold against eps, and the recovery error.
    """
    if lam.real <= 0.0:
        raise ValueError(f"growth witness needs Re lam > 0, got {lam}")
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    grid = GridPair.build(n, Order(1.0))
    vec = fam.evaluate(lam, grid.xi_nodes)
    phi_norm = math.sqrt(float(grid.h * np.sum(np.abs(vec) ** 2)))
    eps_prime = eps / 2.0
    if phi_norm <= eps_prime:
        t_star = 0.0
    else:
        t_star = math.log(phi_norm / eps_prime) / lam.real
    seed_coeff = cmath.exp(-lam * t_star)
    seed_norm = abs(seed_coeff) * phi_norm
    _, end_coeff = spectral_evolve(fam, [(lam, seed_coeff)], t_star)[0]
    terminal_error = abs(end_coeff - 1.0)
    return {
        "lam": lam,
        "eps": eps,
        "t_star": t_star,
        "phi_norm": phi_norm,
        "seed_norm": seed_norm,
        "terminal_error": terminal_error,
        "recovery_gap": terminal_error * phi_norm,
    }


def periodic_orbit_check(fam: EigenfunctionFamily, omega: float,
                         delta: Order = Order(0.5)) -> dict:
    """Rotating-pair witness at frequency omega.

    The conjugate modes +/- i omega return to their start after
    tau = 2 pi / omega and negate after half that.  The rescaled flow on
    the matching rotation generator returns at the pulled-back time
    psi_inv(tau); its clock-transfer residual is recorded alongside.
    """
    if omega <= 0.0:
        raise ValueError(f"need omega > 0, got {omega}")
    tau = 2.0 * math.pi / omega
    combo = [(1j * omega, 1.0 + 0.0j), (-1j * omega, 1.0 + 0.0j)]
    full = spectral_evolve(fam, combo, tau)
    half = spectral_evolve(fam, combo, tau / 2.0)
    err_full = max(abs(coeff - 1.0) for _, coeff in full)
    err_half = max(abs(coeff + 1.0) for _, coeff in half)

    rotation = GeneratorMatrix(
        entries=np.diag([1j * omega, -1j * omega]),
        ip_weights=np.ones(2), label=f"rotation[omega={omega}]")
    cs = ConformableSemigroup(rotation, Clock(delta))
    x = np.array([1.0, 1.0], dtype=complex)
    t_return = cs.clock.psi_inv(tau)
    return_gap = rotation.w_norm(cs.evolve(t_return, x) - x) / rotation.w_norm(x)
    transfer_residual, _ = clock_invariance_check(cs, x, [tau])
    return {
        "omega": omega,
        "tau": tau,
        "delta": delta.delta,
        "t_return": t_return,
        "coefficient_error_full": err_full,
        "coefficient_error_half": err_half,
        "return_gap": return_gap,
        "transfer_residual": transfer_residual,
    }
