"""Acceptance gate: one test per advertised guarantee, at the stated
tolerance, printing the measured margin.

Each test is a criterion; the -v report carries one pass/fail line apiece.
Time bounds hold the process's CPU time (`time.process_time`), which host
load does not inflate the way it inflates wall time.
"""

import json
import time

import numpy as np
import pytest

from confsemi import (ConformableSemigroup, DriftDiffusionParams, EigenfunctionFamily,
                      FunctionHandle, GeneratorMatrix, LambdaRectangle, Order,
                      WeightedQuadrature,
                      clock_invariance_check, conf_derivative_limit,
                      conf_integral, conjugacy_residual, contraction_check,
                      delta_law_residual, dirichlet_second_difference, dissipativity_margin,
                      dsw_condition_check, dsw_hypotheses_probe,
                      empirical_orders, evolve_classical,
                      generator_delta_quotient, lp_delta_norm,
                      parameter_transfer, periodic_orbit_check, pullback,
                      resolvent_bound_check, solve_conformable_ode,
                      spatial_unitary_apply,
                      transport_conjugacy_residual, transport_pde_residual,
                      x0_probe, xinf_probe)
from confsemi.cli import main as cli_main
from confsemi.config import TOLERANCE_DEFAULTS


def corpus():
    return [
        FunctionHandle(lambda t: np.ones_like(np.asarray(t, float))),
        FunctionHandle(lambda t: np.asarray(t, float)),
        FunctionHandle(lambda t: np.asarray(t, float) ** 2),
        FunctionHandle(np.sin),
        FunctionHandle(lambda t: np.exp(-t)),
    ]


def plain_graded_gauss(end, fn, depth=14, pts=24):
    nodes, weights = np.polynomial.legendre.leggauss(pts)
    cuts = [0.0] + [end * 2.0 ** (-k) for k in range(depth, -1, -1)]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(weights * fn(mid + half * nodes)))
    return total


def nilpotent2():
    return GeneratorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0,
                           "nilpotent2")


def diag_decay():
    return GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "diag_decay")


def diag_complex():
    return GeneratorMatrix(np.diag([-0.3 + 2.0j, -1.0 + 0.0j]), 1.0,
                           "diag_complex")


def nonnormal4():
    entries = np.array([[-1.0, 2.0, 0.0, 1.0],
                        [0.0, -0.5, 3.0, 0.0],
                        [0.0, 0.0, -2.0, 1.0],
                        [0.0, 0.0, 0.0, 0.3]])
    return GeneratorMatrix(entries, 1.0, "nonnormal4")


def conformable(g, delta):
    return ConformableSemigroup(g, Order(delta))


def report(k, name, worst, tol, elapsed):
    print(f"[PASS] criterion {k:02d} {name}: worst {worst:.3e} "
          f"(tol {tol:.1e}) in {elapsed:.2f}s CPU")


def test_criterion_01_time_isometry():
    start = time.process_time()
    worst = 0.0
    for delta in (0.3, 0.5, 0.9):
        quad = WeightedQuadrature.build(Order(delta), 0.0, 1.0)
        s_end = Order(delta).psi(1.0)
        for p in (1.0, 2.0):
            for f in corpus():
                left = lp_delta_norm(f, p, quad)
                g = pullback(Order(delta), f)
                right = plain_graded_gauss(
                    s_end, lambda s: np.abs(g(s)) ** p) ** (1.0 / p)
                worst = max(worst, abs(left - right) / left)
    elapsed = time.process_time() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, "time_isometry", worst, 1e-10, elapsed)


def test_criterion_02_spatial_unitarity():
    start = time.process_time()
    worst = 0.0
    for delta in (0.3, 0.5, 0.9):
        quad = WeightedQuadrature.build(Order(delta), 0.0, 1.0)
        for f in corpus():
            left_sq = lp_delta_norm(f, 2.0, quad) ** 2
            g = spatial_unitary_apply(Order(delta), f, "forward")
            right_sq = plain_graded_gauss(1.0, lambda xi: np.abs(g(xi)) ** 2)
            worst = max(worst, abs(left_sq - right_sq) / max(left_sq, 1.0))
        stretch = FunctionHandle(lambda x, d=delta: np.asarray(x, float) ** d)
        got_sq = lp_delta_norm(stretch, 2.0, quad) ** 2
        worst = max(worst, abs(got_sq - 1.0 / (3.0 * delta)) * 3.0 * delta)
        if delta == 0.5:
            assert got_sq == pytest.approx(2.0 / 3.0, rel=1e-10)
    elapsed = time.process_time() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(2, "spatial_unitarity", worst, 1e-10, elapsed)


def test_criterion_03_fundamental_identity():
    start = time.process_time()
    fns = [FunctionHandle(np.sin),
           FunctionHandle(lambda t: np.exp(-t)),
           FunctionHandle(lambda t: 1.0 + np.asarray(t, float) ** 2)]
    worst = 0.0
    for delta in (0.3, 0.5, 0.8):
        order = Order(delta)
        for f in fns:
            def profile(t, f=f, order=order):
                quad = WeightedQuadrature.build(order, 0.0, t, 8, 12)
                return conf_integral(f, quad).real

            big = FunctionHandle(profile)
            for t in np.linspace(0.15, 1.9, 20):
                got = conf_derivative_limit(big, order, float(t))
                want = float(np.asarray(f(float(t))))
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.process_time() - start
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(3, "fundamental_identity", worst, 1e-8, elapsed)


def test_criterion_04_composition_law():
    start = time.process_time()
    rng = np.random.default_rng([0, 4])
    pairs = rng.uniform(0.0, 2.0, size=(50, 2))
    worst = 0.0
    for g in (nilpotent2(), diag_decay(), diag_complex()):
        x = np.array([1.0, -0.7], dtype=complex)
        x = x / g.w_norm(x)
        for delta in (0.3, 0.5, 0.7, 1.0):
            cs = conformable(g, delta)
            for r, q in pairs:
                worst = max(worst, delta_law_residual(cs, float(r), float(q), x))
    elapsed = time.process_time() - start
    assert worst <= 1e-11
    assert elapsed < 1.0
    report(4, "composition_law", worst, 1e-11, elapsed)


def test_criterion_05_generator_coincidence():
    start = time.process_time()
    worst = 0.0
    for g in (nilpotent2(), diag_decay(), diag_complex()):
        x = np.array([1.0, -1.0], dtype=complex)
        want = g.entries @ x
        scale = max(1.0, float(np.linalg.norm(want)))
        for delta in (0.3, 0.5, 0.7):
            order = Order(delta)
            t_seq = [order.psi_inv(0.5 * 2.0**-k) for k in range(8)]
            got = generator_delta_quotient(conformable(g, delta), x, t_seq)
            worst = max(worst, float(np.linalg.norm(got - want)) / scale)
    elapsed = time.process_time() - start
    assert worst <= 1e-6
    assert elapsed < 1.0
    report(5, "generator_coincidence", worst, 1e-6, elapsed)


def test_criterion_06_clock_correspondence():
    start = time.process_time()
    g = nonnormal4()
    x0 = np.array([1.0, -1.0, 0.5, 1.0], dtype=complex)
    worst = 0.0
    for delta in (0.4, 0.7):
        order = Order(delta)
        orbit = solve_conformable_ode(g, Order(delta), x0, 2.0, n_out=9)
        for t, state in zip(orbit.times, orbit.states):
            want = evolve_classical(g, order.psi(float(t)), x0)
            err = np.linalg.norm(state - want) / max(np.linalg.norm(want), 1e-30)
            worst = max(worst, float(err))
    elapsed = time.process_time() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    report(6, "clock_correspondence", worst, 1e-6, elapsed)


def test_criterion_07_contraction_suite():
    start = time.process_time()
    g = dirichlet_second_difference(128)
    margin = dissipativity_margin(g)
    assert margin <= 1e-12
    for lam in (0.1, 0.5, 1.0, 2.0):
        residual, params = resolvent_bound_check(g, lam)
        assert residual <= TOLERANCE_DEFAULTS["resolvent_slack"], params
    for delta in (0.5, 1.0):
        residual, params = contraction_check(conformable(g, delta),
                                             (0.1, 1.0, 5.0))
        assert residual <= TOLERANCE_DEFAULTS["contraction_slack"], params
    elapsed = time.process_time() - start
    assert elapsed < 5.0
    report(7, "contraction_suite", margin, 1e-12, elapsed)


def test_criterion_08_conjugacy_convergence():
    start = time.process_time()
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
    pairs = conjugacy_residual(p, (64, 128, 256))
    orders = empirical_orders(pairs)
    assert min(orders) >= 1.5, (pairs, orders)
    exact = conjugacy_residual(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)), (64,))[0][1]
    assert exact <= 1e-12
    elapsed = time.process_time() - start
    assert elapsed < 10.0
    report(8, "conjugacy_convergence", min(orders), 1.5, elapsed)


def test_criterion_09_parameter_transfer():
    start = time.process_time()
    rng = np.random.default_rng([0, 9])
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.05, 1.0))
        ta, tb, _ = parameter_transfer(DriftDiffusionParams(a, b, c,
                                                            Order(delta)))
        worst = max(worst, abs(tb**2 / (2.0 * ta) - b**2 / (2.0 * a)))
    elapsed = time.process_time() - start
    assert worst <= 1e-14
    assert elapsed < 1.0
    report(9, "parameter_transfer", worst, 1e-14, elapsed)


def test_criterion_10_transport_conjugacy_and_pde():
    start = time.process_time()
    f = FunctionHandle(np.sin, np.cos, lambda x: -np.sin(x))
    rng = np.random.default_rng([0, 10])
    worst_conj = 0.0
    worst_pde = 0.0
    for alpha in (0.3, 0.5, 1.0):
        order = Order(alpha)
        xi = 0.05 + 2.95 * rng.random(50)
        for t in (0.3, 1.0):
            res = transport_conjugacy_residual(order, f, t, xi) / 2.0  # 1+max|sin|
            worst_conj = max(worst_conj, res)
        worst_pde = max(worst_pde, transport_pde_residual(
            order, f, 0.7, np.linspace(0.2, 2.0, 40)))
    elapsed = time.process_time() - start
    assert worst_conj <= 1e-12
    assert worst_pde <= 1e-6
    assert elapsed < 1.0
    report(10, "transport_conjugacy_and_pde", max(worst_conj, worst_pde),
           1e-6, elapsed)


def test_criterion_11_separation_hypotheses():
    start = time.process_time()
    checks = [((1.0, 1.0, 0.4), True), ((1.0, 1.0, 0.6), False),
              ((1.0, 2.0, 0.5), False)]
    for (a, b, c), expect in checks:
        out = dsw_condition_check(DriftDiffusionParams(a, b, c, Order(1.0)))
        assert (out["status"] == "condition_met") is expect, out
    fam = EigenfunctionFamily.from_params(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))
    probe = dsw_hypotheses_probe(fam, LambdaRectangle(0.0, 2.0, 12.0), n=256)
    eigen, _ = probe["eigen_residual"]
    analyticity, _ = probe["analyticity"]
    assert eigen <= 1.0
    assert analyticity <= 1e-8
    assert probe["gram"]["det"] > 1e-10
    elapsed = time.process_time() - start
    assert elapsed < 10.0
    report(11, "separation_hypotheses", analyticity, 1e-8, elapsed)


def test_criterion_12_dynamical_witnesses():
    start = time.process_time()
    fam = EigenfunctionFamily.from_params(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))
    decay, params = x0_probe(-1.0, np.linspace(0.0, 4.0, 9))
    assert params["monotone"] and decay <= 1e-12
    landing, params = xinf_probe(fam, 1.0, 1e-3)
    assert params["t_star"] > 0.0
    assert params["seed_norm"] < 1e-3
    assert landing <= 1e-12
    orbit, params = periodic_orbit_check(2.0 * np.pi)
    assert params["t_return"] == pytest.approx(
        Order(0.5).psi_inv(1.0), rel=1e-14)
    assert orbit <= 1e-9
    rotation = GeneratorMatrix(np.diag([2j * np.pi, -2j * np.pi]), 1.0)
    transfer, _ = clock_invariance_check(
        ConformableSemigroup(rotation, Order(0.5)),
        np.array([1.0, 1.0], dtype=complex), [params["tau"]])
    assert transfer <= 1e-12
    elapsed = time.process_time() - start
    assert elapsed < 1.0
    report(12, "dynamical_witnesses", decay, 1e-12, elapsed)


def test_criterion_13_determinism(tmp_path, capsys):
    start = time.process_time()
    cfg = tmp_path / "det.ini"
    cfg.write_text("[run]\nsuite = all\nseed = 0\n")
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        code = cli_main(["run", "--suite", "all", "--config", str(cfg),
                         "--out", str(out), "--seed", "0"])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    json.loads(blobs[0])  # well formed
    elapsed = time.process_time() - start
    assert elapsed < 10.0
    report(13, "determinism", 0.0, 0.0, elapsed)
