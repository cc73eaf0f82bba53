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
from dataclasses import dataclass

import numpy as np

from .clock import Order
from .drift_diffusion import (DriftDiffusionParams, EigenfunctionFamily,
                              GridPair, _twin_stencil)
from .semigroup import (ConformableSemigroup, GeneratorMatrix, _band_apply,
                        evolve_classical)

__all__ = [
    "LambdaRectangle",
    "dsw_condition_check",
    "dsw_hypotheses_probe",
    "clock_invariance_check",
    "x0_probe",
    "xinf_probe",
    "periodic_orbit_check",
]

# fixed test profiles for the contour-analyticity functionals: sine,
# parabola and exponential decay
_FUNCTIONALS = (lambda xi: np.sin(np.pi * xi), lambda xi: xi * (1.0 - xi),
                lambda xi: np.exp(-xi))
# radius of the contour means; each is also taken at half this radius
_CONTOUR_RADIUS = 0.1
# trapezoid nodes on each circle: exact mean for trig polynomials up to
# degree 15, far more than the truncation needs here
_CONTOUR_POINTS = 16


@dataclass(frozen=True)
class LambdaRectangle:
    """Axis-aligned sampling rectangle in the spectral plane.

    Sampled on a 3 x 3 grid, which must put at least one sample on the
    imaginary axis.
    """

    center: complex
    re_half: float
    im_half: float

    def __post_init__(self) -> None:
        if self.re_half < 0.0 or self.im_half < 0.0:
            raise ValueError("half-extents must be nonnegative")
        if not any(abs(lam.real) <= 1e-12 for lam in self.samples()):
            raise ValueError("no sample point lies on the imaginary axis")

    def samples(self) -> list:
        res = np.linspace(self.center.real - self.re_half,
                          self.center.real + self.re_half, 3)
        ims = np.linspace(self.center.imag - self.im_half,
                          self.center.imag + self.im_half, 3)
        return [complex(r, i) for r in res for i in ims]

    def corners(self) -> list:
        return [complex(self.center.real + sr * self.re_half,
                        self.center.imag + si * self.im_half)
                for sr in (-1.0, 1.0) for si in (-1.0, 1.0)]


def dsw_condition_check(p: DriftDiffusionParams) -> dict:
    """Coefficient inequality gating the dichotomy: c < b^2/(2a) < 1.

    Returns the params of an informational record, the verdict in
    "status".  The ratio is invariant under the parameter transfer, so raw
    and transferred coefficients give the same verdict.
    """
    ratio = p.b ** 2 / (2.0 * p.a)
    holds = (p.c < ratio) and (ratio < 1.0)
    return {
        "a": p.a,
        "b": p.b,
        "c": p.c,
        "status": "condition_met" if holds else "condition_not_met",
        "ratio": ratio,
        "lower_margin": ratio - p.c,
        "upper_margin": 1.0 - ratio,
    }


def dsw_hypotheses_probe(fam: EigenfunctionFamily, rect: LambdaRectangle,
                         n: int = 256,
                         residual_factor: float = 10.0) -> dict:
    """Probe the three checkable hypotheses on one spectral rectangle.

    For every sample the discrete eigen-residual of the twin's bands (no
    n x n array) on every row but the last is measured against
    residual_factor * h^2 * sup|phi''''|; contour means of three fixed
    functionals are compared with their center values; and the Gram
    determinant of the normalized corner eigenfunctions is recorded for the
    caller to hold against its separation threshold.  A degenerate Gram
    (duplicated spectral values) is recorded, not raised.

    Returns the worst (residual, params) of each measure under
    "eigen_residual", "eigen_residual_imag_axis", "analyticity" and
    "analyticity_shrink" (the change on halving the radius), and the params
    {det, duplicate_values} under "gram".
    """
    grid = GridPair.build(n, Order(1.0))
    twin = DriftDiffusionParams(fam.diffusion, fam.drift, fam.reaction,
                                Order(1.0))
    bands = _twin_stencil(twin, grid)
    xi, h = grid.xi_nodes, grid.h
    # the last row reads the clamped ghost 0 at xi = 1, where phi is not 0
    centered = slice(0, n - 1)

    tests = np.column_stack([func(xi) for func in _FUNCTIONALS])  # (n, 3)
    nodes = [cmath.exp(2j * math.pi * k / _CONTOUR_POINTS)
             for k in range(_CONTOUR_POINTS)]

    def contour_means(center: complex, radius: float) -> np.ndarray:
        """the three functionals' trapezoid means on one circle, read from
        the mean of one (_CONTOUR_POINTS, n) block of eigenfunctions"""
        block = np.array([fam.evaluate(center + radius * z, xi)
                          for z in nodes])
        return h * (np.mean(block, axis=0) @ tests)

    ratios, axis_ratios, defects, shrink_changes = [], [], [], []
    for lam in rect.samples():
        vec = fam.evaluate(lam, xi)
        residual = float(np.max(np.abs(
            (_band_apply(bands, vec) - lam * vec)[centered])))
        bound = residual_factor * h * h * fam.fourth_derivative_sup(lam)
        ratios.append(residual / bound)
        if abs(lam.real) <= 1e-12:
            axis_ratios.append(ratios[-1])
        center_vals = h * (vec @ tests)
        mean = contour_means(lam, _CONTOUR_RADIUS)
        mean_half = contour_means(lam, _CONTOUR_RADIUS / 2.0)
        scale = np.maximum(np.abs(center_vals), 1e-12)
        defects.extend((np.abs(mean - center_vals) / scale).tolist())
        shrink_changes.extend((np.abs(mean - mean_half) / scale).tolist())

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
    worst = max(ratios)
    return {
        "eigen_residual": (worst, {"points": len(ratios), "worst_ratio": worst}),
        "eigen_residual_imag_axis": (max(axis_ratios),
                                     {"points": len(axis_ratios)}),
        "analyticity": (max(defects), {"radius": _CONTOUR_RADIUS}),
        "analyticity_shrink": (max(shrink_changes), {
            "radii": [_CONTOUR_RADIUS, _CONTOUR_RADIUS / 2.0]}),
        "gram": {"det": float(abs(np.linalg.det(gram))),
                 "duplicate_values": duplicates},
    }


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
        pulled = cs.evolve(cs.order.psi_inv(s), x)
        ref = g.w_norm(classical)
        item_i = max(item_i, g.w_norm(pulled - classical) / (ref + 1e-300))
        disp_c = g.w_norm(classical - x)
        disp_p = g.w_norm(pulled - x)
        item_ii = max(item_ii, abs(disp_c - disp_p) / (1.0 + disp_c))
        item_iii = max(item_iii, abs(g.w_norm(pulled) - ref) / (1.0 + ref))
    return max(item_i, item_ii, item_iii), {
        "generator": g.label or "unnamed",
        "delta": cs.order.delta,
        "s_list": s_arr,
        "flow_transfer": item_i,
        "displacement_transfer": item_ii,
        "norm_sequence": item_iii,
    }


def x0_probe(lam: complex, t_grid) -> tuple:
    """Forward decay witness on a strictly stable mode.

    The modal coefficient is exp(lam t); the residual is how far its
    magnitude strays from exp(Re lam * t), plus 1 unless it decreases
    strictly along the grid.  Returns (residual, params).
    """
    if lam.real >= 0.0:
        raise ValueError(f"decay witness needs Re lam < 0, got {lam}")
    times = [float(t) for t in t_grid]
    if len(times) < 3 or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("need at least 3 strictly increasing times")
    mags = [abs(cmath.exp(lam * t)) for t in times]
    worst = max(abs(mag - math.exp(lam.real * t)) / math.exp(lam.real * t)
                for mag, t in zip(mags, times))
    monotone = all(b < a for a, b in zip(mags, mags[1:]))
    return worst + (0.0 if monotone else 1.0), {"lam": lam, "monotone": monotone}


def xinf_probe(fam: EigenfunctionFamily, lam: complex, eps: float,
               n: int = 256) -> tuple:
    """Backward-launch witness on a strictly unstable mode.

    Seeds y = exp(-lam t*) phi with t* chosen so the seed norm is eps/2;
    flowing forward for t* should land back on phi.  The residual is the
    recovery error of the coefficient, plus 1 unless the seed norm is below
    eps.  Returns (residual, params).
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
    terminal_error = abs(seed_coeff * cmath.exp(lam * t_star) - 1.0)
    return terminal_error + (0.0 if seed_norm < eps else 1.0), {
        "lam": lam,
        "eps": eps,
        "t_star": t_star,
        "seed_norm": seed_norm,
    }


def periodic_orbit_check(omega: float) -> tuple:
    """Rotating-pair witness at frequency omega, on the order-1/2 clock.

    The conjugate modes +/- i omega return to their start after
    tau = 2 pi / omega and negate after half that.  The rescaled flow on
    the matching rotation generator returns at the pulled-back time
    psi_inv(tau).  The residual is the worst of the two coefficient errors,
    the return gap and the clock-transfer residual.  Returns
    (residual, params).
    """
    if omega <= 0.0:
        raise ValueError(f"need omega > 0, got {omega}")
    tau = 2.0 * math.pi / omega
    modes = (1j * omega, -1j * omega)
    err_full = max(abs(cmath.exp(lam * tau) - 1.0) for lam in modes)
    err_half = max(abs(cmath.exp(lam * (tau / 2.0)) + 1.0) for lam in modes)

    rotation = GeneratorMatrix(
        entries=np.diag(modes), weight=1.0,
        label=f"rotation[omega={omega}]")
    cs = ConformableSemigroup(rotation, Order(0.5))
    x = np.array([1.0, 1.0], dtype=complex)
    t_return = cs.order.psi_inv(tau)
    return_gap = rotation.w_norm(cs.evolve(t_return, x) - x) / rotation.w_norm(x)
    transfer_residual, _ = clock_invariance_check(cs, x, [tau])
    return max(err_full, err_half, return_gap, transfer_residual), {
        "omega": omega,
        "tau": tau,
        "t_return": t_return,
    }
