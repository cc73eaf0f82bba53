"""Named check suites: each one turns a module's identities into CheckReports.

Every check follows the same discipline: compute a residual by two genuinely
different routes (closed form vs numeric, package rule vs independent rule,
graded vs uniform), normalize it, and record it against the configured
tolerance.  Seeds fix all randomness, so one configuration yields one byte
stream of results at one BLAS thread count; on another, an LU solve or a
product of order 100 or more may round differently (README, Outputs).

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

from .calculus import (FunctionHandle, WeightedQuadrature, _gauss_legendre,
                       conf_derivative, conf_derivative_iterated,
                       conf_derivative_limit, conf_integral)
from .clock import Order, pow_arr
from .config import SUITE_NAMES, WEIGHT_IDS, RunConfig
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
                        solve_conformable_ode, strong_continuity_check,
                        taylor_matrix_exp)
from .spaces import (inner_product_2delta, lp_delta_norm, pullback,
                     sobolev_norm, spatial_unitary_apply)
from .transport import (apply_S_alpha, transport_conjugacy_residual,
                        transport_pde_residual, weight_criterion_probe)

__all__ = ["run_suite", "run_sweep", "make_weight", "SWEEP_COLUMNS"]

# the columns of a run_sweep row, in order
SWEEP_COLUMNS = ("delta", "n", "a", "b", "c", "conjugacy_residual",
                 "law_residual", "correspondence_residual")


# ---------------------------------------------------------------- fixtures

def _nilpotent2() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           weight=1.0, label="nilpotent2")


def _diag_decay() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.diag([-1.0, -2.0]),
                           weight=1.0, label="diag_decay")


def _diag_complex() -> GeneratorMatrix:
    return GeneratorMatrix(entries=np.diag([-0.3 + 2.0j, -1.0 + 0.0j]),
                           weight=1.0, label="diag_complex")


def _cascade3() -> GeneratorMatrix:
    entries = np.array([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -2.0]])
    return GeneratorMatrix(entries=entries, weight=1.0,
                           label="cascade3")


def _nonnormal4() -> GeneratorMatrix:
    entries = np.array([[-1.0, 2.0, 0.0, 1.0],
                        [0.0, -0.5, 3.0, 0.0],
                        [0.0, 0.0, -2.0, 1.0],
                        [0.0, 0.0, 0.0, 0.3]])
    return GeneratorMatrix(entries=entries, weight=1.0,
                           label="nonnormal4")


# fixed test profiles, each with the analytic derivatives some check reads;
# the weight ids of the transport model are entries too
_PROFILES = {
    "unit": FunctionHandle(
        evaluator=lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "linear": FunctionHandle(
        evaluator=lambda t: np.asarray(t, dtype=float),
        classical_derivative=lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "square": FunctionHandle(
        evaluator=lambda t: np.asarray(t, dtype=float) ** 2,
        classical_derivative=lambda t: 2.0 * np.asarray(t, dtype=float)),
    "cubic": FunctionHandle(
        evaluator=lambda t: np.asarray(t, dtype=float) ** 3,
        classical_derivative=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2,
        second_derivative=lambda t: 6.0 * np.asarray(t, dtype=float)),
    "sin": FunctionHandle(evaluator=np.sin, classical_derivative=np.cos,
                          second_derivative=lambda t: -np.sin(t)),
    "exp_decay": FunctionHandle(
        evaluator=lambda t: np.exp(-np.asarray(t, dtype=float)),
        classical_derivative=lambda t: -np.exp(-np.asarray(t, dtype=float)),
        second_derivative=lambda t: np.exp(-np.asarray(t, dtype=float))),
    "rational": FunctionHandle(
        evaluator=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
        classical_derivative=lambda t: -2.0 * np.asarray(t, dtype=float)
        / (1.0 + np.asarray(t, dtype=float) ** 2) ** 2),
    "gaussian": FunctionHandle(
        evaluator=lambda t: np.exp(-np.asarray(t, dtype=float) ** 2)),
    "two_plus_sin": FunctionHandle(
        evaluator=lambda t: 2.0 + np.sin(np.asarray(t, dtype=float)),
        classical_derivative=np.cos,
        second_derivative=lambda t: -np.sin(np.asarray(t, dtype=float))),
}
# the calculus and transport corpus, and the spaces corpus by name
# (polynomial plus transcendental, all with closed-form weighted integrals)
_CALC_CORPUS = tuple(_PROFILES[name] for name in ("sin", "exp_decay", "rational"))
_SPACE_CORPUS = ("unit", "linear", "square", "sin", "exp_decay")


def make_weight(weight_id: str) -> FunctionHandle:
    """Named weight profiles usable in the transport model."""
    if weight_id not in WEIGHT_IDS:
        raise ValueError(f"unknown weight id {weight_id!r}")
    return _PROFILES[weight_id]


# ------------------------------------------------------------- clock suite

def _worst(gap: np.ndarray, scale) -> float:
    """Largest |gap| / scale over a grid."""
    return float(np.max(np.abs(gap) / scale))


def suite_clock(cfg: RunConfig) -> Iterator:
    t_grid = np.linspace(1e-6, 10.0, 400)
    for d in cfg.delta_list:
        order = Order(d)
        worst = _worst(order.psi_inv(order.psi(t_grid)) - t_grid, 1.0 + t_grid)
        # below psi(tiny) the inverse underflows to a subnormal or 0, which
        # would measure the float format rather than the clock
        s_lo = max(1e-6, order.psi(np.finfo(float).tiny))
        s_grid = np.linspace(s_lo, order.psi(10.0), 400)
        worst = max(worst, _worst(order.psi(order.psi_inv(s_grid)) - s_grid,
                                  1.0 + s_grid))
        yield (f"clock.roundtrip[delta={d}]", {"delta": d},
               worst, cfg.tol("clock_roundtrip"))

        min_gap = float(np.min(np.diff(order.psi(t_grid))))
        zero_gap = abs(order.psi(0.0))
        yield (f"clock.monotone[delta={d}]", {"delta": d, "min_gap": min_gap},
               max(zero_gap, -min(min_gap, 0.0)), 0.0)

        rng = np.random.default_rng([cfg.seed, 11, int(round(1000 * d))])
        t1, t2 = rng.uniform(0.05, 3.0, size=(200, 2)).T
        merged = pow_arr(pow_arr(t1, d) + pow_arr(t2, d), 1.0 / d)
        rhs = order.psi(t1) + order.psi(t2)
        yield (f"clock.additivity[delta={d}]", {"delta": d, "pairs": 200},
               _worst(order.psi(merged) - rhs, 1.0 + np.abs(rhs)),
               cfg.tol("clock_additivity"))

    unit = Order(1.0)
    worst = max(_worst(unit.psi(t_grid) - t_grid, 1.0),
                _worst(unit.psi_inv(t_grid) - t_grid, 1.0))
    yield ("clock.linear_reduction[delta=1.0]", {"delta": 1.0},
           worst, cfg.tol("clock_roundtrip"))


# ---------------------------------------------------------- calculus suite

def _integral_profile(f: FunctionHandle, order: Order) -> FunctionHandle:
    """t -> integral of f over (0, t) against the stretch weight, as a
    handle that is cheap enough to difference; an array t is one stacked
    rule."""
    def ev(t):
        quad = WeightedQuadrature.build(order, 0.0, t,
                                        panels=8, points_per_panel=12)
        return conf_integral(f, quad).real

    return FunctionHandle(evaluator=ev)


def suite_calculus(cfg: RunConfig) -> Iterator:
    t_pts = np.linspace(0.2, 3.0, 20)

    for d in cfg.delta_list:
        order = Order(d)
        worst = 0.0
        for m, name in enumerate(("linear", "square", "cubic"), start=1):
            want = m * pow_arr(t_pts, m - d)
            got = conf_derivative(_PROFILES[name], order, t_pts)
            worst = max(worst, _worst(got - want, np.maximum(1.0, np.abs(want))))
        yield (f"calculus.power_rule[delta={d}]",
               {"delta": d, "degrees": [1, 2, 3]}, worst, cfg.tol("power_rule"))

        worst = 0.0
        t_probe = np.array([0.3, 0.7, 1.5])
        for f in _CALC_CORPUS:
            direct = conf_derivative(f, order, t_probe).tolist()
            limit = conf_derivative_limit(f, order, t_probe).tolist()
            for got, want in zip(limit, direct):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.limit_quotient[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        worst = 0.0
        t_probe = np.array([0.25, 0.5, 1.0, 2.0])
        for f in _CALC_CORPUS:
            profile = _integral_profile(f, order)
            recovered = conf_derivative_limit(profile, order, t_probe).tolist()
            for got, want in zip(recovered, f.evaluator(t_probe).tolist()):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.derivative_of_integral[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        worst = 0.0
        t_lo = 0.25  # away from 0: the substituted integrand stays smooth
        for f in _CALC_CORPUS:
            stretched = FunctionHandle(
                evaluator=lambda t, f=f, order=order: conf_derivative(f, order, t))
            for t_end in (0.5, 1.0, 2.0):
                quad = WeightedQuadrature.build(order, t_lo, t_end)
                got = complex(conf_integral(stretched, quad)).real
                want = float(np.asarray(f.evaluator(t_end))
                             - np.asarray(f.evaluator(t_lo)))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        yield (f"calculus.integral_of_derivative[delta={d}]", {"delta": d},
               worst, cfg.tol("fundamental_identity"))

        got = conf_derivative_iterated(_PROFILES["cubic"], order, 2, t_pts)
        want = 3.0 * (3.0 - d) * pow_arr(t_pts, 3.0 - 2.0 * d)
        yield (f"calculus.iterated_second[delta={d}]", {"delta": d},
               _worst(got - want, np.maximum(1.0, np.abs(want))),
               cfg.tol("power_rule"))

    unit = Order(1.0)
    worst = 0.0
    for f in _CALC_CORPUS:
        for t in (0.3, 0.7, 1.5):
            worst = max(worst, abs(conf_derivative(f, unit, t)
                                   - float(np.asarray(f.classical_derivative(t)))))
    quad = WeightedQuadrature.build(unit, 0.0, 1.0)
    plain = complex(conf_integral(FunctionHandle(evaluator=np.cos), quad)).real
    worst = max(worst, abs(plain - math.sin(1.0)))
    yield ("calculus.classical_reduction[delta=1.0]", {"delta": 1.0},
           worst, cfg.tol("classical_reduction"))

    order = Order(0.5)
    osc = FunctionHandle(
        evaluator=lambda t: np.exp(np.sin(order.psi(np.asarray(t, dtype=float)))))
    fine = WeightedQuadrature.build(order, 0.0, 2.0, panels=64,
                                    points_per_panel=16)
    exact = complex(conf_integral(osc, fine)).real
    errors = []
    for panels in (4, 8, 16):
        quad = WeightedQuadrature.build(order, 0.0, 2.0, panels=panels,
                                        points_per_panel=4)
        approx = complex(conf_integral(osc, quad)).real
        errors.append(abs(approx - exact))
    factors = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    yield ("calculus.quadrature_refinement[delta=0.5]",
           {"delta": 0.5, "errors": errors, "factors": factors},
           cfg.tol("quadrature_factor") / min(factors), 1.0)


# ------------------------------------------------------------ spaces suite

def _graded_gl(end: float) -> tuple:
    # independent plain rule with geometric refinement toward 0, where the
    # substituted profile has a fractional-power cusp
    xs, ws = _gauss_legendre(24)
    cuts = np.concatenate(([0.0], end * 2.0 ** (-np.arange(13, -1, -1.0))))
    nodes, weights = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        nodes.append(0.5 * (xs + 1.0) * (hi - lo) + lo)
        weights.append(0.5 * ws * (hi - lo))
    return np.concatenate(nodes), np.concatenate(weights)


def _cubic_stack(coeffs: np.ndarray) -> FunctionHandle:
    """A handle whose value at m points is the (k, m) stack of k cubics,
    from (k, 4) coefficients highest first, by np.polyval's Horner steps."""
    def ev(t):
        t = np.asarray(t, dtype=float)
        y = np.zeros(coeffs.shape[:1] + t.shape)
        for column in coeffs.T:
            y = y * t + column.reshape(column.shape + (1,) * t.ndim)
        return y

    return FunctionHandle(evaluator=ev)


def suite_spaces(cfg: RunConfig) -> Iterator:
    horizon = 1.0
    for d in cfg.delta_list:
        order = Order(d)
        end = order.psi(horizon)
        quad2 = WeightedQuadrature.build(order, 0.0, horizon)

        worst = 0.0
        s_nodes, s_weights = _graded_gl(end)
        for p in (1.0, 2.0):
            for name in _SPACE_CORPUS:
                f = _PROFILES[name]
                left = lp_delta_norm(f, p, quad2)
                g = pullback(order, f)
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
        corpus = [("stretch_power", stretch_profile)] + [
            (name, _PROFILES[name]) for name in _SPACE_CORPUS[1:]]
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
        coeffs = rng.uniform(-1.0, 1.0, size=(40, 2, 4))
        f, g = _cubic_stack(coeffs[:, 0]), _cubic_stack(coeffs[:, 1])
        worst = 0.0
        for ip, nf, ng in zip(inner_product_2delta(f, g, quad2).tolist(),
                              lp_delta_norm(f, 2.0, quad2).tolist(),
                              lp_delta_norm(g, 2.0, quad2).tolist()):
            worst = max(worst, max(0.0, abs(ip) / (nf * ng) - 1.0))
        yield (f"spaces.cauchy_schwarz[delta={d}]", {"delta": d, "pairs": 40},
               worst, cfg.tol("cauchy_schwarz"))

        def leg(k, t, order=order, end=end):
            u = 2.0 * order.psi(np.asarray(t, dtype=float)) / end - 1.0
            return u if k == 1 else 1.5 * u ** 2 - 0.5

        f1 = FunctionHandle(evaluator=lambda t: leg(1, t))
        f2 = FunctionHandle(evaluator=lambda t: leg(2, t))
        ip = abs(inner_product_2delta(f1, f2, quad2))
        n1 = lp_delta_norm(f1, 2.0, quad2)
        n2 = lp_delta_norm(f2, 2.0, quad2)
        yield (f"spaces.orthogonal_pair[delta={d}]", {"delta": d},
               ip / (n1 * n2), cfg.tol("isometry"))

        smooth = _PROFILES["two_plus_sin"]
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
    order = Order(delta)
    orbit = solve_conformable_ode(probe, order, x0, 2.0, **solver)
    flows = ConformableSemigroup(probe, order).evolve(orbit.times[1:], x0)
    worst = 0.0
    for state, exact in zip(orbit.states[1:], flows):
        worst = max(worst, probe.w_norm(state - exact)
                    / max(probe.w_norm(exact), 1e-30))
    return worst


def suite_semigroup(cfg: RunConfig) -> Iterator:
    gens = [_nilpotent2(), _diag_decay(), _diag_complex(), _cascade3(),
            _nonnormal4()]

    worst = 0.0
    for g in gens:
        for s in (0.3, 1.0, 2.0):
            series = taylor_matrix_exp(s * g.entries)
            dense = evolve_classical(g, s, np.eye(g.dim))
            scale = max(1.0, float(np.max(np.abs(series))))
            worst = max(worst, float(np.max(np.abs(series - dense))) / scale)
    yield ("semigroup.exp_oracle", {"generators": [g.label for g in gens]},
           worst, cfg.tol("exp_oracle"))

    law_gens = [_nilpotent2(), _diag_decay(), _diag_complex()]
    for gi, g in enumerate(law_gens):
        x = np.ones(g.dim, dtype=complex)
        for d in cfg.delta_list:
            cs = ConformableSemigroup(g, Order(d))
            rng = np.random.default_rng([cfg.seed, 31, gi,
                                         int(round(1000 * d))])
            r, q = rng.uniform(0.0, 2.0, size=(50, 2)).T
            law = delta_law_residual(cs, r, q, x) / g.w_norm(x)
            worst = float(max(0.0, *law))
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
            cs = ConformableSemigroup(g, Order(d))
            t_seq = cs.order.psi_inv(0.5 * 2.0 ** -np.arange(8.0))
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
    psi = Order(0.6).psi(sample.times)
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
            cs = ConformableSemigroup(g, Order(d))
            residual, params = strong_continuity_check(cs, x)
            yield (f"semigroup.strong_continuity[{g.label}][delta={d}]", params,
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
        cs = ConformableSemigroup(lap, Order(d))
        residual, params = contraction_check(cs, (0.1, 1.0, 5.0))
        yield (f"contraction[{lap.label}][delta={d}]", params,
               residual, cfg.tol("contraction_slack"))


# --------------------------------------------------- drift-diffusion suite

def _bound_ratio(error: float, bound: float) -> float:
    """error / bound, where a zero bound (at delta = 1 the two operators
    coincide) admits only a zero error."""
    if bound == 0.0:
        return 0.0 if error == 0.0 else math.inf
    return error / bound


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
            # a non-positive or NaN order is no convergence at all; an exact
            # finer residual gives order +inf and the residual 0
            slowest = float(np.min(orders))
            yield (f"drift_diffusion.conjugacy_order[delta={d}]",
                   dict(params, residuals=[res for _, res in pairs],
                        orders=orders),
                   cfg.tol("conjugacy_order") / slowest if slowest > 0.0
                   else math.inf, 1.0)

    worst = 0.0
    for d in cfg.delta_list:
        order = Order(d)
        grid = GridPair.build(64, order)
        forward, inverse = discrete_unitary(grid)
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
        worst = max(_bound_ratio(rec["error"], rec["bound"])
                    for rec in result["records"])
        yield (f"drift_diffusion.mild_bound[n={n}]",
               dict(coeffs, delta=cfg.dd_delta, n=n,
                    stencil_residual=result["stencil_residual"],
                    times=[0.25, 0.5, 1.0]),
               worst, 1.0)

    worst = 0.0
    for d in cfg.delta_list:
        w1, w2 = derivative_identity_residuals(_PROFILES["sin"], Order(d),
                                               np.linspace(0.1, 0.95, 30))
        worst = max(worst, w1, w2)
    yield ("drift_diffusion.derivative_identities", {"profile": "sin"},
           worst, cfg.tol("derivative_identity"))


# --------------------------------------------------------- transport suite

def suite_transport(cfg: RunConfig) -> Iterator:
    # each profile with its sup-norm scale over the flowed range
    corpus = [(f, 1.0 + float(np.max(np.abs(
        np.asarray(f.evaluator(np.linspace(0.0, 6.0, 200)))))))
        for f in _CALC_CORPUS]
    x_grid = np.linspace(0.1, 2.5, 60)
    for a in sorted({0.3, 0.5, 1.0, cfg.transport_alpha}):
        order = Order(a)
        rng = np.random.default_rng([cfg.seed, 53, int(round(1000 * a))])
        xi_samples = rng.uniform(0.05, 3.0, size=100)

        worst = 0.0
        for f, scale in corpus:
            for t in (0.3, 1.0):
                res = transport_conjugacy_residual(order, f, t, xi_samples)
                worst = max(worst, res / scale)
        yield (f"transport.conjugacy[alpha={a}]",
               {"alpha": a, "times": [0.3, 1.0], "samples": 100},
               worst, cfg.tol("transport_pointwise"))

        x_samples = np.linspace(0.2, 2.0, 40)
        worst = 0.0
        for f, _ in corpus:
            worst = max(worst, transport_pde_residual(order, f, 0.7, x_samples))
        yield (f"transport.pde_residual[alpha={a}]", {"alpha": a, "t": 0.7},
               worst, cfg.tol("transport_pde"))

        worst = 0.0
        for f, scale in corpus:
            for r, q in ((0.4, 0.9), (0.7, 0.7)):
                once = apply_S_alpha(order, apply_S_alpha(order, f, q), r)
                joint = apply_S_alpha(order, f, r + q)
                gap = float(np.max(np.abs(
                    np.asarray(once.evaluator(x_grid))
                    - np.asarray(joint.evaluator(x_grid)))))
                worst = max(worst, gap / scale)
        yield (f"transport.flow_law[alpha={a}]", {"alpha": a},
               worst, cfg.tol("transport_pointwise"))

    worst = 0.0
    for f, _ in corpus:
        flowed = apply_S_alpha(Order(1.0), f, 0.8)
        shifted = np.asarray(f.evaluator(x_grid + 0.8))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(flowed.evaluator(x_grid)) - shifted))))
    yield ("transport.shift_reduction[alpha=1.0]", {"alpha": 1.0, "t": 0.8},
           worst, cfg.tol("transport_pointwise"))

    order = Order(cfg.transport_alpha)
    windows = (0.5, 1.0, 2.0, 4.0, 8.0)
    contrast = "unit" if cfg.transport_weight != "unit" else "exp_decay"
    for weight in (cfg.transport_weight, contrast):
        params = weight_criterion_probe(order, make_weight(weight), windows)
        # heuristic: recorded for its status, never fails a run
        yield (f"weight_window_probe[{weight}][alpha={order.delta}]",
               dict(params, weight=weight), 0.0, 0.0)


# ---------------------------------------------------------- dynamics suite

def suite_dynamics(cfg: RunConfig) -> Iterator:
    condition_triples = ((1.0, 1.0, 0.4), (1.0, 1.0, 0.6), (1.0, 2.0, 0.5))
    for a, b, c in condition_triples:
        yield (f"dynamics.condition[a={a}][b={b}][c={c}]",
               dsw_condition_check(
                   DriftDiffusionParams(a=a, b=b, c=c, delta=Order(1.0))),
               0.0, 0.0)

    fam = EigenfunctionFamily.from_params(DriftDiffusionParams(
        a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c, delta=Order(1.0)))
    # the rectangle grows with a diffusion above 1: on a fixed one the corner
    # eigenfunctions turn nearly collinear as the diffusion grows, and the
    # Gram determinant drops below gram_min.  It never shrinks below the
    # unit one: with a small diffusion the drift sets the corner roots, and
    # a shrunk rectangle pulls them together instead
    scale = max(1.0, fam.diffusion)
    rect = LambdaRectangle(center=0.0 + 0.0j, re_half=2.0 * scale,
                           im_half=12.0 * scale)

    probe = dsw_hypotheses_probe(fam, rect, n=cfg.n_eigen,
                                 residual_factor=cfg.tol("eigen_factor"))
    shared = {"a": cfg.dd_a, "b": cfg.dd_b, "c": cfg.dd_c, "n": cfg.n_eigen}
    for name, tol in (("eigen_residual", 1.0), ("eigen_residual_imag_axis", 1.0),
                      ("analyticity", cfg.tol("analyticity")),
                      ("analyticity_shrink", cfg.tol("analyticity"))):
        residual, params = probe[name]
        yield f"dynamics.{name}", dict(shared, **params), residual, tol

    det = probe["gram"]["det"]
    threshold = cfg.tol("gram_min")
    yield ("dynamics.gram_separation",
           dict(shared, det=det, threshold=threshold,
                duplicate_values=probe["gram"]["duplicate_values"]),
           threshold / det if det > 0.0 else float("inf"), 1.0)

    for d in (0.4, 0.8):
        cs = ConformableSemigroup(_diag_decay(), Order(d))
        residual, params = clock_invariance_check(
            cs, np.array([1.0, -1.0]), (0.3, 0.9, 1.7))
        yield (f"clock_invariance[diag_decay][delta={d}]", params,
               residual, cfg.tol("invariance"))

    for label, lam in (("-1", -1.0 + 0.0j), ("-0.5+3j", -0.5 + 3.0j)):
        residual, params = x0_probe(lam, np.linspace(0.0, 4.0, 9))
        yield (f"dynamics.x0_decay[lam={label}]", dict(shared, **params),
               residual, cfg.tol("decay"))

    for lam, eps in ((1.0 + 0.0j, 1e-3), (2.0 + 0.0j, 1e-5)):
        residual, params = xinf_probe(fam, lam, eps, n=cfg.n_eigen)
        yield (f"dynamics.xinf_landing[lam={lam.real}][eps={eps}]",
               dict(shared, **params), residual, cfg.tol("decay"))

    for omega in (2.0 * math.pi, 1.0):
        residual, params = periodic_orbit_check(omega)
        yield (f"dynamics.periodic_return[omega={omega}]",
               dict(shared, **params), residual, cfg.tol("periodic"))


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
    """Cross-parameter residual table: one row per (delta, n) cell, a dict
    keyed by SWEEP_COLUMNS."""
    rows = []
    for d in sorted(cfg.sweep_delta_list):
        correspondence = _orbit_gap(d)
        p = DriftDiffusionParams(a=cfg.dd_a, b=cfg.dd_b, c=cfg.dd_c,
                                 delta=Order(d))
        for n in sorted(cfg.sweep_n_list):
            conjugacy = conjugacy_residual(p, (n,))[0][1]
            grid = GridPair.build(n, Order(d))
            # the law runs on the uniform-grid twin: below delta = 1/2 the
            # graded operator has spurious fast-growing modes whose
            # exponential overflows at sweep horizons, and the law holds for
            # any generator
            g = build_classical_operator(p, grid)
            cs = ConformableSemigroup(g, Order(d))
            x = grid.xi_nodes * (1.0 - grid.xi_nodes)
            try:
                law = float(max(delta_law_residual(
                    cs, (0.5, 0.3, 1.0), (1.2, 0.7, 1.0), x)))
            except FloatingPointError:  # the flow overflowed: a non-finite cell
                law = math.inf
            law /= g.w_norm(x)
            rows.append(dict(zip(SWEEP_COLUMNS, (
                d, n, cfg.dd_a, cfg.dd_b, cfg.dd_c,
                conjugacy, law, correspondence))))
    return rows
