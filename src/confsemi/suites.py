"""Named check suites: each one turns a module's identities into CheckReports.

Every check follows the same discipline: compute a residual by two genuinely
different routes (closed form vs numeric, package rule vs independent rule,
graded vs uniform), normalize it, and record it against the configured
tolerance.  Seeds fix all randomness, so one configuration yields one byte
stream of results.

A suite is a generator that yields each check as a tuple
(check_id, params, residual, tolerance).  Library checks only measure: they
return a residual and params, and the suite composes the id and picks the
configured tolerance.  `run_suite` times every item and records it.
"""

from __future__ import annotations

import math
import time
from typing import Iterator

import numpy as np

from .calculus import (FunctionHandle, WeightedQuadrature, conf_derivative,
                       conf_derivative_iterated, conf_derivative_limit,
                       conf_integral)
from .clock import Clock, Order, pow_arr, pow_pos
from .config import SUITE_NAMES, RunConfig
from .drift_diffusion import (DriftDiffusionParams, EigenfunctionFamily,
                              GridPair, build_classical_operator,
                              conjugacy_residual, derivative_identity_residuals,
                              discrete_unitary, empirical_orders,
                              mild_solution_residuals, parameter_transfer)
from .dynamics import (LambdaRectangle, clock_invariance_check,
                       dsw_condition_check, dsw_hypotheses_probe,
                       periodic_orbit_check, x0_probe, xinf_probe)
from .reports import CheckReport
from .semigroup import (ConformableSemigroup, GeneratorMatrix,
                        classical_generator_quotient, contraction_check,
                        delta_law_residual, dirichlet_second_difference,
                        dissipativity_margin, evolve_classical,
                        generator_delta_quotient, resolvent_bound_check,
                        solve_conformable_ode, strong_continuity_fit,
                        taylor_matrix_exp)
from .spaces import (WeightSpec, inner_product_2delta, lp_delta_norm,
                     sobolev_norm, spatial_unitary_apply, time_isometry_apply)
from .transport import (TransportModel, apply_S_alpha,
                        transport_conjugacy_residual, transport_pde_residual,
                        weight_criterion_probe)

__all__ = ["run_suite", "run_sweep", "make_weight"]


# ---------------------------------------------------------------- fixtures

def _nilpotent2() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           ip_weights=np.ones(2), label="nilpotent2")


def _diag_decay() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.diag([-1.0, -2.0]),
                           ip_weights=np.ones(2), label="diag_decay")


def _diag_complex() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.diag([-0.3 + 2.0j, -1.0 + 0.0j]),
                           ip_weights=np.ones(2), label="diag_complex")


def _cascade3() -> GeneratorMatrix:
    entries = np.array([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -2.0]])
    return GeneratorMatrix(entries=entries, ip_weights=np.ones(3),
                           label="cascade3")


def _nonnormal4() -> GeneratorMatrix:
    entries = np.array([[-1.0, 2.0, 0.0, 1.0],
                        [0.0, -0.5, 3.0, 0.0],
                        [0.0, 0.0, -2.0, 1.0],
                        [0.0, 0.0, 0.0, 0.3]])
    return GeneratorMatrix(entries=entries, ip_weights=np.ones(4),
                           label="nonnormal4")


def make_weight(weight_id: str) -> WeightSpec:
    """Named weight profiles usable in the transport model."""
    if weight_id == "unit":
        rho = FunctionHandle(evaluator=lambda t: np.ones_like(
            np.asarray(t, dtype=float)))
    elif weight_id == "exp_decay":
        rho = FunctionHandle(evaluator=lambda t: np.exp(-np.asarray(t, dtype=float)))
    elif weight_id == "gaussian":
        rho = FunctionHandle(evaluator=lambda t: np.exp(
            -np.asarray(t, dtype=float) ** 2))
    else:
        raise ValueError(f"unknown weight id {weight_id!r}")
    return WeightSpec(rho=rho, label=weight_id)


# ------------------------------------------------------------- clock suite

def suite_clock(cfg: RunConfig) -> Iterator:
    t_grid = np.linspace(1e-6, 10.0, 400)
    for d in cfg.delta_list:
        clock = Clock(Order(d))
        worst = 0.0
        for t in t_grid:
            worst = max(worst, abs(clock.psi_inv(clock.psi(t)) - t) / (1.0 + t))
        # below psi(tiny) the inverse underflows to a subnormal or 0, which
        # would measure the float format rather than the clock
        s_lo = max(1e-6, clock.psi(np.finfo(float).tiny))
        for s in np.linspace(s_lo, clock.psi(10.0), 400):
            worst = max(worst, abs(clock.psi(clock.psi_inv(s)) - s) / (1.0 + s))
        yield (f"clock.roundtrip[delta={d}]", {"delta": d},
               worst, cfg.tol("clock_roundtrip"))

        vals = [clock.psi(t) for t in t_grid]
        min_gap = min(b - a for a, b in zip(vals, vals[1:]))
        zero_gap = abs(clock.psi(0.0))
        yield (f"clock.monotone[delta={d}]", {"delta": d, "min_gap": min_gap},
               max(zero_gap, -min(min_gap, 0.0)), 0.0)

        rng = np.random.default_rng([cfg.seed, 11, int(round(1000 * d))])
        worst = 0.0
        for t1, t2 in rng.uniform(0.05, 3.0, size=(200, 2)):
            merged = pow_pos(pow_pos(t1, d) + pow_pos(t2, d), 1.0 / d)
            lhs = clock.psi(merged)
            rhs = clock.psi(t1) + clock.psi(t2)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        yield (f"clock.additivity[delta={d}]", {"delta": d, "pairs": 200},
               worst, cfg.tol("clock_additivity"))

    unit = Clock(Order(1.0))
    worst = max(abs(unit.psi(t) - t) for t in t_grid)
    worst = max(worst, max(abs(unit.psi_inv(t) - t) for t in t_grid))
    yield ("clock.linear_reduction[delta=1.0]", {"delta": 1.0},
           worst, cfg.tol("clock_roundtrip"))


# ---------------------------------------------------------- calculus suite

def _calc_corpus() -> list:
    return [
        ("sin", FunctionHandle(evaluator=np.sin, classical_derivative=np.cos,
                               second_derivative=lambda t: -np.sin(t))),
        ("exp_decay", FunctionHandle(
            evaluator=lambda t: np.exp(-np.asarray(t, dtype=float)),
            classical_derivative=lambda t: -np.exp(-np.asarray(t, dtype=float)),
            second_derivative=lambda t: np.exp(-np.asarray(t, dtype=float)))),
        ("rational", FunctionHandle(
            evaluator=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
            classical_derivative=lambda t: -2.0 * np.asarray(t, dtype=float)
            / (1.0 + np.asarray(t, dtype=float) ** 2) ** 2)),
    ]


def _integral_profile(f: FunctionHandle, order: Order) -> FunctionHandle:
    """t -> integral of f over (0, t) against the stretch weight, as a
    handle that is cheap enough to difference."""
    def ev(t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            quad = WeightedQuadrature.build(order, 0.0, float(arr),
                                            panels=8, points_per_panel=12)
            return complex(conf_integral(f, order, 0.0, float(arr), quad)).real
        return np.array([ev(float(v)) for v in arr.flat]).reshape(arr.shape)

    return FunctionHandle(evaluator=ev)


def suite_calculus(cfg: RunConfig) -> Iterator:
    t_pts = np.linspace(0.2, 3.0, 20)

    for d in cfg.delta_list:
        order = Order(d)
        worst = 0.0
        for m in (1, 2, 3):
            f = FunctionHandle(
                evaluator=lambda t, m=m: np.asarray(t, dtype=float) ** m,
                classical_derivative=lambda t, m=m: m * np.asarray(
                    t, dtype=float) ** (m - 1))
            for t in t_pts:
                got = conf_derivative(f, order, float(t))
                want = m * pow_pos(float(t), m - d)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.power_rule[delta={d}]",
               {"delta": d, "degrees": [1, 2, 3]}, worst, cfg.tol("power_rule"))

        worst = 0.0
        for name, f in _calc_corpus():
            for t in (0.3, 0.7, 1.5):
                direct = conf_derivative(f, order, t)
                limit = conf_derivative_limit(f, order, t)
                worst = max(worst, abs(limit - direct) / max(1.0, abs(direct)))
        yield (f"calculus.limit_quotient[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        worst = 0.0
        for name, f in _calc_corpus():
            profile = _integral_profile(f, order)
            for t in (0.25, 0.5, 1.0, 2.0):
                recovered = conf_derivative_limit(profile, order, t)
                target = float(np.asarray(f.evaluator(t)))
                worst = max(worst, abs(recovered - target) / max(1.0, abs(target)))
        yield (f"calculus.derivative_of_integral[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        worst = 0.0
        t_lo = 0.25  # away from 0: the substituted integrand stays smooth
        for name, f in _calc_corpus():
            stretched = FunctionHandle(
                evaluator=lambda t, f=f, d=d: pow_arr(np.asarray(t, dtype=float),
                                                      1.0 - d)
                * np.asarray(f.classical_derivative(t)))
            for t_end in (0.5, 1.0, 2.0):
                quad = WeightedQuadrature.build(order, t_lo, t_end)
                got = complex(conf_integral(stretched, order, t_lo, t_end,
                                            quad)).real
                want = float(np.asarray(f.evaluator(t_end))
                             - np.asarray(f.evaluator(t_lo)))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.integral_of_derivative[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        worst = 0.0
        cubic = FunctionHandle(
            evaluator=lambda t: np.asarray(t, dtype=float) ** 3,
            classical_derivative=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2,
            second_derivative=lambda t: 6.0 * np.asarray(t, dtype=float))
        for t in t_pts:
            got = conf_derivative_iterated(cubic, order, 2, float(t))
            want = 3.0 * (3.0 - d) * pow_pos(float(t), 3.0 - 2.0 * d)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.iterated_second[delta={d}]", {"delta": d},
               worst, cfg.tol("power_rule"))

    unit = Order(1.0)
    worst = 0.0
    for name, f in _calc_corpus():
        for t in (0.3, 0.7, 1.5):
            worst = max(worst, abs(conf_derivative(f, unit, t)
                                   - float(np.asarray(f.classical_derivative(t)))))
    quad = WeightedQuadrature.build(unit, 0.0, 1.0)
    plain = complex(conf_integral(
        FunctionHandle(evaluator=np.cos), unit, 0.0, 1.0, quad)).real
    worst = max(worst, abs(plain - math.sin(1.0)))
    yield ("calculus.classical_reduction[delta=1.0]", {"delta": 1.0},
           worst, cfg.tol("classical_reduction"))

    order = Order(0.5)
    half = Clock(order)
    osc = FunctionHandle(
        evaluator=lambda t: np.exp(np.sin(half.psi(np.asarray(t, dtype=float)))))
    fine = WeightedQuadrature.build(order, 0.0, 2.0, panels=64,
                                    points_per_panel=16)
    exact = complex(conf_integral(osc, order, 0.0, 2.0, fine)).real
    errors = []
    for panels in (4, 8, 16):
        quad = WeightedQuadrature.build(order, 0.0, 2.0, panels=panels,
                                        points_per_panel=4)
        approx = complex(conf_integral(osc, order, 0.0, 2.0, quad)).real
        errors.append(abs(approx - exact))
    factors = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    yield ("calculus.quadrature_refinement[delta=0.5]",
           {"delta": 0.5, "errors": errors, "factors": factors},
           cfg.tol("quadrature_factor") / min(factors), 1.0)


# ------------------------------------------------------------ spaces suite

def _graded_gl(end: float) -> tuple:
    # independent plain rule with geometric refinement toward 0, where the
    # substituted profile has a fractional-power cusp
    xs, ws = np.polynomial.legendre.leggauss(24)
    cuts = np.concatenate(([0.0], end * 2.0 ** (-np.arange(13, -1, -1.0))))
    nodes, weights = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        nodes.append(0.5 * (xs + 1.0) * (hi - lo) + lo)
        weights.append(0.5 * ws * (hi - lo))
    return np.concatenate(nodes), np.concatenate(weights)


def _space_corpus() -> list:
    # fixed five-profile corpus: polynomial plus transcendental behavior,
    # all with closed-form weighted integrals
    return [
        ("one", FunctionHandle(
            evaluator=lambda t: np.ones_like(np.asarray(t, dtype=float)))),
        ("linear", FunctionHandle(
            evaluator=lambda t: np.asarray(t, dtype=float))),
        ("square", FunctionHandle(
            evaluator=lambda t: np.asarray(t, dtype=float) ** 2)),
        ("sin", FunctionHandle(evaluator=np.sin)),
        ("exp_decay", FunctionHandle(
            evaluator=lambda t: np.exp(-np.asarray(t, dtype=float)))),
    ]


def suite_spaces(cfg: RunConfig) -> Iterator:
    horizon = 1.0
    for d in cfg.delta_list:
        order = Order(d)
        clock = Clock(order)
        end = clock.psi(horizon)
        quad2 = WeightedQuadrature.build(order, 0.0, horizon)

        worst = 0.0
        s_nodes, s_weights = _graded_gl(end)
        for p in (1.0, 2.0):
            for name, f in _space_corpus():
                left = lp_delta_norm(f, p, quad2)
                g = time_isometry_apply(clock, horizon, f)
                right = float(np.sum(
                    s_weights * np.abs(np.asarray(g.evaluator(s_nodes))) ** p)
                ) ** (1.0 / p)
                worst = max(worst, abs(left - right) / max(left, 1e-30))
        yield (f"spaces.time_isometry[delta={d}]",
               {"delta": d, "horizon": horizon, "exponents": [1.0, 2.0]},
               worst, cfg.tol("isometry"))

        xi_nodes, xi_weights = _graded_gl(1.0)
        stretch_profile = FunctionHandle(
            evaluator=lambda x, d=d: pow_arr(np.asarray(x, dtype=float), d))
        corpus = [("stretch_power", stretch_profile)] + _space_corpus()[1:]
        worst = 0.0
        for name, f in corpus:
            left_sq = lp_delta_norm(f, 2.0, quad2) ** 2
            g = spatial_unitary_apply(order, f, "forward")
            right_sq = float(np.sum(
                xi_weights * np.abs(np.asarray(g.evaluator(xi_nodes))) ** 2))
            worst = max(worst, abs(left_sq - right_sq) / left_sq)
            if name == "stretch_power":  # closed form: both sides 1/(3 delta)
                worst = max(worst, abs(left_sq - 1.0 / (3.0 * d)) * 3.0 * d)
            back = spatial_unitary_apply(order, g, "inverse")
            probe = np.linspace(0.05, 0.95, 19)
            worst = max(worst, float(np.max(np.abs(
                np.asarray(back.evaluator(probe))
                - np.asarray(f.evaluator(probe))))))
        yield (f"spaces.spatial_unitarity[delta={d}]",
               {"delta": d, "corpus": [name for name, _ in corpus]},
               worst, cfg.tol("unitarity"))

        rng = np.random.default_rng([cfg.seed, 23, int(round(1000 * d))])
        worst = 0.0
        for _ in range(40):
            cf, cg = rng.uniform(-1.0, 1.0, size=(2, 4))
            f = FunctionHandle(evaluator=lambda t, c=cf: np.polyval(
                c, np.asarray(t, dtype=float)))
            g = FunctionHandle(evaluator=lambda t, c=cg: np.polyval(
                c, np.asarray(t, dtype=float)))
            ip = abs(inner_product_2delta(f, g, quad2))
            nf = lp_delta_norm(f, 2.0, quad2)
            ng = lp_delta_norm(g, 2.0, quad2)
            worst = max(worst, max(0.0, ip / (nf * ng) - 1.0))
        yield (f"spaces.cauchy_schwarz[delta={d}]", {"delta": d, "pairs": 40},
               worst, cfg.tol("cauchy_schwarz"))

        def leg(k, t, clock=clock, end=end):
            u = 2.0 * clock.psi(np.asarray(t, dtype=float)) / end - 1.0
            return u if k == 1 else 1.5 * u ** 2 - 0.5

        f1 = FunctionHandle(evaluator=lambda t: leg(1, t))
        f2 = FunctionHandle(evaluator=lambda t: leg(2, t))
        ip = abs(inner_product_2delta(f1, f2, quad2))
        n1 = lp_delta_norm(f1, 2.0, quad2)
        n2 = lp_delta_norm(f2, 2.0, quad2)
        yield (f"spaces.orthogonal_pair[delta={d}]", {"delta": d},
               ip / (n1 * n2), cfg.tol("isometry"))

        smooth = FunctionHandle(
            evaluator=lambda t: 2.0 + np.sin(np.asarray(t, dtype=float)),
            classical_derivative=np.cos,
            second_derivative=lambda t: -np.sin(np.asarray(t, dtype=float)))
        norms = [sobolev_norm(smooth, m, 2.0, quad2) for m in (0, 1, 2)]
        base = lp_delta_norm(smooth, 2.0, quad2)
        residual = max(0.0, norms[0] - norms[1], norms[1] - norms[2])
        residual = max(residual, abs(norms[0] - base) / base)
        yield (f"spaces.sobolev_layers[delta={d}]", {"delta": d, "norms": norms},
               residual, cfg.tol("unitarity"))


# --------------------------------------------------------- semigroup suite

def _orbit_gap(delta: float, **solver) -> float:
    """Worst relative gap between the adaptive orbit of the nonnormal4
    generator and its exact flow exp(psi(t) A) x0 on (0, 2]."""
    probe = _nonnormal4()
    x0 = np.array([1.0, -1.0, 0.5, 1.0])
    clock = Clock(Order(delta))
    orbit = solve_conformable_ode(probe, Order(delta), x0, 2.0, **solver)
    worst = 0.0
    for t, state in zip(orbit.times[1:], orbit.states[1:]):
        exact = evolve_classical(probe, clock.psi(float(t)), x0.astype(complex))
        worst = max(worst, probe.w_norm(state - exact)
                    / max(probe.w_norm(exact), 1e-30))
    return worst


def suite_semigroup(cfg: RunConfig) -> Iterator:
    gens = [_nilpotent2(), _diag_decay(), _diag_complex(), _cascade3(),
            _nonnormal4()]

    worst = 0.0
    for g in gens:
        eye = np.eye(g.dim, dtype=complex)
        for s in (0.3, 1.0, 2.0):
            series = taylor_matrix_exp(s * g.entries)
            dense = np.column_stack(
                [evolve_classical(g, s, eye[:, j]) for j in range(g.dim)])
            scale = max(1.0, float(np.max(np.abs(series))))
            worst = max(worst, float(np.max(np.abs(series - dense))) / scale)
    yield ("semigroup.exp_oracle", {"generators": [g.label for g in gens]},
           worst, cfg.tol("exp_oracle"))

    law_gens = [_nilpotent2(), _diag_decay(), _diag_complex()]
    for gi, g in enumerate(law_gens):
        x = np.ones(g.dim, dtype=complex)
        for d in cfg.delta_list:
            cs = ConformableSemigroup(g, Clock(Order(d)))
            rng = np.random.default_rng([cfg.seed, 31, gi,
                                         int(round(1000 * d))])
            worst = 0.0
            for r, q in rng.uniform(0.0, 2.0, size=(50, 2)):
                worst = max(worst, delta_law_residual(cs, float(r), float(q), x)
                            / g.w_norm(x))
            yield (f"semigroup.delta_law[{g.label}][delta={d}]",
                   {"generator": g.label, "delta": d, "pairs": 50},
                   worst, cfg.tol("law"))

    quotient_cases = [(_diag_decay(), np.array([1.0, -1.0])),
                      (_cascade3(), np.array([1.0, -1.0, 0.5])),
                      (_nilpotent2(), np.array([1.0, 1.0]))]
    for g, x in quotient_cases:
        ax = g.entries @ x.astype(complex)
        scale = g.w_norm(ax)
        per_delta = {}
        worst = 0.0
        for d in cfg.delta_list:
            clock = Clock(Order(d))
            cs = ConformableSemigroup(g, clock)
            t_seq = [clock.psi_inv(0.5 * 2.0 ** (-k)) for k in range(8)]
            quot = generator_delta_quotient(cs, x.astype(complex), t_seq)
            err = g.w_norm(quot - ax) / scale
            per_delta[str(d)] = err
            worst = max(worst, err)
        yield (f"semigroup.generator_quotient[{g.label}]",
               {"generator": g.label, "per_delta": per_delta},
               worst, cfg.tol("generator_match"))

    worst = 0.0
    for g, x in quotient_cases:
        ax = g.entries @ x.astype(complex)
        s_seq = [0.5 * 2.0 ** (-k) for k in range(8)]
        quot = classical_generator_quotient(g, x.astype(complex), s_seq)
        worst = max(worst, g.w_norm(quot - ax) / g.w_norm(ax))
    yield ("semigroup.classical_quotient",
           {"generators": [g.label for g, _ in quotient_cases]},
           worst, cfg.tol("generator_match"))

    for d in (0.4, 0.7):
        yield (f"semigroup.orbit_oracle[delta={d}]",
               {"generator": "nonnormal4", "delta": d, "t_end": 2.0},
               _orbit_gap(d), cfg.tol("orbit_oracle"))
    yield ("semigroup.orbit_reduction[delta=1.0]",
           {"generator": "nonnormal4", "delta": 1.0},
           _orbit_gap(1.0, rtol=1e-10, atol=1e-13), cfg.tol("orbit_reduction"))

    # RK-recorded norms against the closed form |(e^-psi, e^-2psi)|; the RK
    # route runs at rtol 1e-9, so the orbit tolerance gates it
    sample = solve_conformable_ode(_diag_decay(), Order(0.6),
                                   np.array([1.0, 1.0]), 1.5, n_out=9)
    psi = np.array([Clock(Order(0.6)).psi(t) for t in sample.times])
    closed = np.sqrt(np.exp(-2.0 * psi) + np.exp(-4.0 * psi))
    yield ("semigroup.orbit_norm_consistency",
           {"generator": "diag_decay", "delta": 0.6},
           float(np.max(np.abs(sample.norms - closed) / closed)),
           cfg.tol("orbit_oracle"))

    continuity_cases = [(_diag_decay(), np.array([1.0, 1.0])),
                        (_cascade3(), np.array([1.0, -1.0, 1.0]))]
    for g, y in continuity_cases:
        x = g.entries @ y.astype(complex)  # x in the generator's range
        for d in (0.4, 0.8):
            cs = ConformableSemigroup(g, Clock(Order(d)))
            fit = strong_continuity_fit(cs, x)
            residual = fit["rel_dev"] + (0.0 if fit["decreasing"] else 1.0)
            yield (f"semigroup.strong_continuity[{g.label}][delta={d}]",
                   {"generator": g.label, "delta": d,
                    "slope": fit["slope"], "generator_norm": fit["generator_norm"],
                    "decreasing": fit["decreasing"]},
                   residual, cfg.tol("strong_continuity"))

    lap = dirichlet_second_difference(cfg.n_resolvent)
    margin = dissipativity_margin(lap)
    yield (f"semigroup.dissipativity[{lap.label}]",
           {"generator": lap.label, "margin": margin},
           margin, cfg.tol("dissipativity"))
    for lam in (0.1, 0.5, 1.0, 2.0):
        residual, params = resolvent_bound_check(lap, lam, seed=cfg.seed)
        yield (f"resolvent_bound[{lap.label}][lam={lam}]", params,
               residual, cfg.tol("resolvent_slack"))
    for d in (0.5, 1.0):
        cs = ConformableSemigroup(lap, Clock(Order(d)))
        residual, params = contraction_check(cs, (0.1, 1.0, 5.0))
        yield (f"contraction[{lap.label}][delta={d}]", params,
               residual, cfg.tol("contraction_slack"))


# --------------------------------------------------- drift-diffusion suite

def suite_drift_diffusion(cfg: RunConfig) -> Iterator:
    rng = np.random.default_rng([cfg.seed, 41])
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 3.0, size=3)
        d = rng.uniform(0.05, 1.0)
        p = DriftDiffusionParams(a=float(a), b=float(b), c=float(c),
                                 delta=Order(float(d)))
        a_t, b_t, c_t = parameter_transfer(p)
        lhs = b_t ** 2 / (2.0 * a_t)
        rhs = b ** 2 / (2.0 * a)
        worst = max(worst, abs(lhs - rhs) / rhs)
        worst = max(worst, abs(a_t - a * d * d) / (a * d * d))
        worst = max(worst, abs(b_t - b * d) / (b * d))
        worst = max(worst, abs(c_t - c) / c)
    yield ("drift_diffusion.transfer_invariant", {"samples": 100},
           worst, cfg.tol("transfer"))

    coeffs = {"a": cfg.dd_a, "b": cfg.dd_b, "c": cfg.dd_c}
    for d in cfg.delta_list:
        p = DriftDiffusionParams(a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c,
                                 delta=Order(d))
        pairs = conjugacy_residual(p, cfg.n_list)
        params = dict(coeffs, delta=d, n_list=list(cfg.n_list))
        if d == 1.0:
            yield ("drift_diffusion.conjugacy_exact[delta=1.0]", params,
                   max(res for _, res in pairs), cfg.tol("delta_one_exact"))
        else:
            orders = empirical_orders(pairs)
            yield (f"drift_diffusion.conjugacy_order[delta={d}]",
                   dict(params, residuals=[res for _, res in pairs],
                        orders=orders),
                   cfg.tol("conjugacy_order") / min(orders), 1.0)

    worst = 0.0
    for d in cfg.delta_list:
        order = Order(d)
        grid = GridPair.build(64, order)
        forward, inverse = discrete_unitary(grid, order)
        rng = np.random.default_rng([cfg.seed, 43, int(round(1000 * d))])
        v = rng.standard_normal(64)
        w = rng.standard_normal(64)
        graded_ip = (grid.h / d) * float(np.sum(v * w))
        mapped_ip = grid.h * float(np.sum((forward * v) * (forward * w)))
        # Cauchy-Schwarz scale of the pairing: <v, w> itself can be near 0
        scale = (grid.h / d) * float(np.linalg.norm(v) * np.linalg.norm(w))
        worst = max(worst, abs(graded_ip - mapped_ip) / scale)
        worst = max(worst, float(np.max(np.abs(inverse * (forward * v) - v))))
    yield ("drift_diffusion.unitary_pairing", {"n": 64},
           worst, cfg.tol("transfer"))

    base = DriftDiffusionParams(a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c,
                                delta=Order(cfg.dd_delta))
    fam = EigenfunctionFamily.from_params(base)

    lam_star = fam.confluent_point()
    xi = np.linspace(0.0, 1.0, 257)
    center_vals = fam.evaluate(lam_star, xi)
    worst = 0.0
    for off in (1e-6, -1e-6):
        near = fam.evaluate(lam_star + off * (1.0 + abs(lam_star)), xi)
        worst = max(worst, float(np.max(np.abs(near - center_vals))))
    yield ("drift_diffusion.confluent_continuity",
           dict(coeffs, delta=cfg.dd_delta, lam_star=lam_star),
           worst, cfg.tol("confluent_match"))

    for n in cfg.n_list:
        result = mild_solution_residuals(base, n, (0.25, 0.5, 1.0))
        worst = max(rec["error"] / rec["bound"] for rec in result["records"])
        yield (f"drift_diffusion.mild_bound[n={n}]",
               dict(coeffs, delta=cfg.dd_delta, n=n,
                    stencil_residual=result["stencil_residual"],
                    times=[0.25, 0.5, 1.0]),
               worst, 1.0)

    u = FunctionHandle(evaluator=np.sin, classical_derivative=np.cos,
                       second_derivative=lambda x: -np.sin(x))
    worst = 0.0
    for d in cfg.delta_list:
        w1, w2 = derivative_identity_residuals(u, Order(d),
                                               np.linspace(0.1, 0.95, 30))
        worst = max(worst, w1, w2)
    yield ("drift_diffusion.derivative_identities", {"profile": "sin"},
           worst, cfg.tol("derivative_identity"))


# --------------------------------------------------------- transport suite

def suite_transport(cfg: RunConfig) -> Iterator:
    # each profile with its sup-norm scale over the flowed range
    corpus = [(f, 1.0 + float(np.max(np.abs(
        np.asarray(f.evaluator(np.linspace(0.0, 6.0, 200)))))))
        for _, f in _calc_corpus()]
    x_grid = np.linspace(0.1, 2.5, 60)
    for a in sorted({0.3, 0.5, 1.0, cfg.transport_alpha}):
        order = Order(a)
        model = TransportModel(alpha=order,
                               weight=make_weight(cfg.transport_weight))
        rng = np.random.default_rng([cfg.seed, 53, int(round(1000 * a))])
        xi_samples = rng.uniform(0.05, 3.0, size=100)

        worst = 0.0
        for f, scale in corpus:
            for t in (0.3, 1.0):
                res = transport_conjugacy_residual(model, f, t, xi_samples)
                worst = max(worst, res / scale)
        yield (f"transport.conjugacy[alpha={a}]",
               {"alpha": a, "times": [0.3, 1.0], "samples": 100},
               worst, cfg.tol("transport_pointwise"))

        x_samples = np.linspace(0.2, 2.0, 40)
        worst = 0.0
        for f, _ in corpus:
            worst = max(worst, transport_pde_residual(model, f, 0.7, x_samples))
        yield (f"transport.pde_residual[alpha={a}]", {"alpha": a, "t": 0.7},
               worst, cfg.tol("transport_pde"))

        worst = 0.0
        for f, scale in corpus:
            for r, q in ((0.4, 0.9), (0.7, 0.7)):
                once = apply_S_alpha(model, apply_S_alpha(model, f, q), r)
                joint = apply_S_alpha(model, f, r + q)
                gap = float(np.max(np.abs(
                    np.asarray(once.evaluator(x_grid))
                    - np.asarray(joint.evaluator(x_grid)))))
                worst = max(worst, gap / scale)
        yield (f"transport.flow_law[alpha={a}]", {"alpha": a},
               worst, cfg.tol("transport_pointwise"))

    unit_model = TransportModel(alpha=Order(1.0), weight=make_weight("unit"))
    worst = 0.0
    for f, _ in corpus:
        flowed = apply_S_alpha(unit_model, f, 0.8)
        shifted = np.asarray(f.evaluator(x_grid + 0.8))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(flowed.evaluator(x_grid)) - shifted))))
    yield ("transport.shift_reduction[alpha=1.0]", {"alpha": 1.0, "t": 0.8},
           worst, cfg.tol("transport_pointwise"))

    order = Order(cfg.transport_alpha)
    windows = (0.5, 1.0, 2.0, 4.0, 8.0)
    contrast = "unit" if cfg.transport_weight != "unit" else "exp_decay"
    for weight in (cfg.transport_weight, contrast):
        model = TransportModel(alpha=order, weight=make_weight(weight))
        # heuristic: recorded for its status, never fails a run
        yield (f"weight_window_probe[{weight}][alpha={order.delta}]",
               weight_criterion_probe(model, windows), 0.0, 0.0)


# ---------------------------------------------------------- dynamics suite

def suite_dynamics(cfg: RunConfig) -> Iterator:
    condition_triples = ((1.0, 1.0, 0.4), (1.0, 1.0, 0.6), (1.0, 2.0, 0.5))
    for a, b, c in condition_triples:
        verdict = dsw_condition_check(
            DriftDiffusionParams(a=a, b=b, c=c, delta=Order(1.0)))
        yield (f"dynamics.condition[a={a}][b={b}][c={c}]",
               {"a": a, "b": b, "c": c,
                "status": "condition_met" if verdict["holds"]
                else "condition_not_met",
                "ratio": verdict["ratio"],
                "lower_margin": verdict["lower_margin"],
                "upper_margin": verdict["upper_margin"]},
               0.0, 0.0)

    fam = EigenfunctionFamily.from_params(DriftDiffusionParams(
        a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c, delta=Order(1.0)))
    rect = LambdaRectangle(center=0.0 + 0.0j, re_half=2.0, im_half=12.0)

    probe = dsw_hypotheses_probe(fam, rect, n=cfg.n_eigen,
                                 residual_factor=cfg.tol("eigen_factor"))
    shared = {"a": cfg.dd_a, "b": cfg.dd_b, "c": cfg.dd_c, "n": cfg.n_eigen}
    yield ("dynamics.eigen_residual",
           dict(shared, points=len(probe.eigen_records),
                worst_ratio=probe.worst_eigen_ratio()),
           probe.worst_eigen_ratio(), 1.0)

    axis_worst = max(rec["ratio"] for rec in probe.imag_axis_records)
    yield ("dynamics.eigen_residual_imag_axis",
           dict(shared, points=len(probe.imag_axis_records)), axis_worst, 1.0)

    yield ("dynamics.analyticity", dict(shared, radius=0.1),
           probe.worst_analyticity(), cfg.tol("analyticity"))

    shrink = max(rec["shrink_change"] for rec in probe.analyticity_records)
    yield ("dynamics.analyticity_shrink", dict(shared, radii=[0.1, 0.05]),
           shrink, cfg.tol("analyticity"))

    det = probe.gram["det"]
    threshold = cfg.tol("gram_min")
    yield ("dynamics.gram_separation",
           dict(shared, det=det, threshold=threshold,
                duplicate_values=probe.gram["duplicate_values"]),
           threshold / det if det > 0.0 else float("inf"), 1.0)

    for d in (0.4, 0.8):
        cs = ConformableSemigroup(_diag_decay(), Clock(Order(d)))
        residual, params = clock_invariance_check(
            cs, np.array([1.0, -1.0]), (0.3, 0.9, 1.7))
        yield (f"clock_invariance[diag_decay][delta={d}]", params,
               residual, cfg.tol("invariance"))

    for label, lam in (("-1", -1.0 + 0.0j), ("-0.5+3j", -0.5 + 3.0j)):
        decay = x0_probe(fam, lam, np.linspace(0.0, 4.0, 9))
        yield (f"dynamics.x0_decay[lam={label}]",
               dict(shared, lam=lam, monotone=decay["monotone_decay"]),
               decay["worst_error"] + (0.0 if decay["monotone_decay"] else 1.0),
               cfg.tol("decay"))

    for lam, eps in ((1.0 + 0.0j, 1e-3), (2.0 + 0.0j, 1e-5)):
        rec = xinf_probe(fam, lam, eps, n=cfg.n_eigen)
        residual = rec["terminal_error"] + (
            0.0 if rec["seed_norm"] < eps else 1.0)
        yield (f"dynamics.xinf_landing[lam={lam.real}][eps={eps}]",
               dict(shared, lam=lam, eps=eps, t_star=rec["t_star"],
                    seed_norm=rec["seed_norm"]),
               residual, cfg.tol("decay"))

    for omega in (2.0 * math.pi, 1.0):
        rec = periodic_orbit_check(fam, omega)
        residual = max(rec["coefficient_error_full"],
                       rec["coefficient_error_half"],
                       rec["return_gap"], rec["transfer_residual"])
        yield (f"dynamics.periodic_return[omega={omega}]",
               dict(shared, omega=omega, tau=rec["tau"],
                    t_return=rec["t_return"]),
               residual, cfg.tol("periodic"))


# ------------------------------------------------------------ entry points

_SUITES = {
    "calculus": suite_calculus,
    "spaces": suite_spaces,
    "clock": suite_clock,
    "semigroup": suite_semigroup,
    "drift-diffusion": suite_drift_diffusion,
    "transport": suite_transport,
    "dynamics": suite_dynamics,
}


def run_suite(cfg: RunConfig) -> list:
    """All CheckReports for the configured suite, in execution order.

    `all` runs every suite in SUITE_NAMES order.  A check's wall time runs
    from the previous item of its suite (or the suite's start) to its yield.
    """
    names = ([n for n in SUITE_NAMES if n != "all"] if cfg.suite == "all"
             else [cfg.suite])
    reports = []
    for name in names:
        start = time.perf_counter()
        for item in _SUITES[name](cfg):
            reports.append(CheckReport.from_residual(
                *item, wall_time=time.perf_counter() - start, seed=cfg.seed))
            start = time.perf_counter()
    return reports


def run_sweep(cfg: RunConfig) -> list:
    """Cross-parameter residual table: one row per (delta, n) cell."""
    rows = []
    for d in sorted(cfg.sweep_delta_list):
        correspondence = _orbit_gap(d)
        p = DriftDiffusionParams(a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c,
                                 delta=Order(d))
        for n in sorted(cfg.sweep_n_list):
            conjugacy = conjugacy_residual(p, (n,))[0][1]
            grid = GridPair.build(n, Order(d))
            # uniform-grid twin, both ends clamped: the graded-mesh matrix
            # has spurious fast-growing boundary modes whose exponential
            # overflows at sweep horizons, and the law holds for any generator
            g = build_classical_operator(p, grid, clamp_right=True)
            cs = ConformableSemigroup(g, Clock(Order(d)))
            x = grid.xi_nodes * (1.0 - grid.xi_nodes)
            law = max(delta_law_residual(cs, r, q, x.astype(complex))
                      for r, q in ((0.5, 1.2), (0.3, 0.7), (1.0, 1.0)))
            law /= g.w_norm(x)
            rows.append({
                "delta": d, "n": n,
                "a": cfg.dd_a, "b": cfg.dd_b, "c": cfg.dd_c,
                "conjugacy_residual": conjugacy,
                "law_residual": law,
                "correspondence_residual": correspondence,
            })
    return rows
