"""Graded-grid operator pair, its unitary pairing, and the eigenfamily."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from confsemi import drift_diffusion as dd
from confsemi import (DriftDiffusionParams, EigenfunctionFamily,
                      FunctionHandle, GridPair, Order,
                      build_classical_operator, build_conformable_operator,
                      conf_derivative_iterated, conjugacy_residual,
                      derivative_identity_residuals, discrete_unitary,
                      empirical_orders, mild_solution_residuals,
                      parameter_transfer)
from confsemi.clock import pow_arr
from confsemi.dynamics import LambdaRectangle, dsw_hypotheses_probe
from confsemi.semigroup import (_band_apply, _band_dense, _bands,
                                dirichlet_second_difference)
from conftest import graded_pair

PARAMS = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
EPS = np.finfo(float).eps


# parameter transfer -----------------------------------------------------------

def test_transfer_worked_value():
    assert parameter_transfer(PARAMS) == (0.25, 0.5, 0.4)


def test_transfer_is_identity_at_order_one():
    p = DriftDiffusionParams(1.3, 0.7, 0.2, Order(1.0))
    assert parameter_transfer(p) == (1.3, 0.7, 0.2)


@settings(deadline=None, max_examples=120)
@given(a=st.floats(min_value=0.05, max_value=5.0),
       b=st.floats(min_value=0.05, max_value=5.0),
       c=st.floats(min_value=0.01, max_value=2.0),
       delta=st.floats(min_value=0.05, max_value=1.0))
def test_transfer_preserves_condition_ratio(a, b, c, delta):
    """b^2/(2a) is invariant under the coefficient transfer."""
    p = DriftDiffusionParams(a, b, c, Order(delta))
    ta, tb, tc = parameter_transfer(p)
    assert abs(tb**2 / (2.0 * ta) - b**2 / (2.0 * a)) <= 1e-14 * (
        1.0 + b**2 / (2.0 * a))
    assert tc == c


# grids and the diagonal unitary -------------------------------------------------

def test_grid_pair_shapes():
    grid = GridPair.build(32, Order(0.5))
    assert grid.n == 32
    assert grid.h == pytest.approx(1.0 / 33.0)
    assert np.all(np.diff(grid.xi_nodes) > 0)
    assert np.allclose(grid.x_nodes, grid.xi_nodes**2, rtol=1e-15)


def test_grid_pair_coincides_at_order_one():
    grid = GridPair.build(32, Order(1.0))
    assert np.array_equal(grid.x_nodes, grid.xi_nodes)


def test_discrete_unitary_inverse_pair():
    grid = GridPair.build(48, Order(0.4))
    u, u_inv = discrete_unitary(grid)
    assert np.allclose(u * u_inv * np.eye(48), np.eye(48), atol=1e-14)
    assert u == pytest.approx(0.4 ** -0.5, rel=1e-15)


def test_discrete_unitary_preserves_pairing():
    """graded-grid inner product equals the uniform one after the map."""
    delta = Order(0.4)
    grid = GridPair.build(48, delta)
    u, _ = discrete_unitary(grid)
    p = DriftDiffusionParams(1.0, 1.0, 0.4, delta)
    g_graded = build_conformable_operator(p, grid)
    g_uniform = build_classical_operator(p, grid)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(48)
        g = rng.standard_normal(48)
        left = np.sum(g_graded.weight * f * g)
        right = np.sum(g_uniform.weight * (u * f) * (u * g))
        assert left == pytest.approx(right, rel=1e-13)


def loop_difference_matrices(nodes):
    """The row-by-row assembly the vectorized builder must reproduce
    bitwise, both ends closed by clamped ghost nodes at 0 and 1."""
    n = len(nodes)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    extended = [0.0, *nodes, 1.0]
    for i in range(1, n + 1):
        stencil, at, cols = extended[i - 1:i + 2], extended[i], (i - 2, i - 1, i)
        w1, w2 = dd._quadratic_weights(stencil, at)
        for col, a, b in zip(cols, w1, w2):
            if 0 <= col < n:
                d1[i - 1, col] += a
                d2[i - 1, col] += b
    return d1, d2


@pytest.mark.parametrize("n", [8, 17, 64])
@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_difference_matrices_match_loop_bitwise(n, delta):
    """the bands scattered to dense are the loop's matrices"""
    nodes = GridPair.build(n, Order(delta)).x_nodes
    for w, want in zip(dd._difference_stencils(nodes),
                       loop_difference_matrices(nodes)):
        assert _band_dense(w).tobytes() == want.tobytes()


# band stencils -----------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 257])
@pytest.mark.parametrize("delta", [0.02, 0.5, 1.0])
@pytest.mark.parametrize("complex_block", [False, True])
def test_stencil_apply_matches_dense_product(n, delta, complex_block):
    """the band product is the scattered matrix times a real or complex
    block, to the rounding of a three-term sum, on the Laplacian, the twin
    and the graded operator"""
    p = DriftDiffusionParams(1.3, 0.7, 0.4, Order(delta))
    grid = GridPair.build(n, p.delta)
    rng = np.random.default_rng(11)
    block = rng.standard_normal((n, 5))
    if complex_block:
        block = block + 1j * rng.standard_normal((n, 5))
    for w in (_bands(dirichlet_second_difference(n).entries),
              dd._twin_stencil(p, grid), dd._graded_stencil(p, grid)):
        dense = _band_dense(w)
        gap = np.abs(_band_apply(w, block) - dense @ block)
        assert np.all(gap <= 4.0 * EPS * (np.abs(dense) @ np.abs(block)))


def test_bands_read_back_the_scatter():
    """the reader returns the scattered bands with their ghost entries 0"""
    p = DriftDiffusionParams(1.3, 0.7, 0.4, Order(0.5))
    w = dd._graded_stencil(p, GridPair.build(16, p.delta))
    want = w.copy()
    want[0, 0] = want[2, -1] = 0.0
    assert _bands(_band_dense(w)).tobytes() == want.tobytes()


# quadratics the three-point stencil differentiates exactly, keyed by
# whether they vanish at the clamped right end: x(1 - x) does, x^2 does not
QUADRATICS = {
    True: FunctionHandle(lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x,
                         lambda x: np.full_like(x, -2.0)),
    False: FunctionHandle(lambda x: x ** 2, lambda x: 2.0 * x,
                          lambda x: np.full_like(x, 2.0)),
}


def quadratic_error(n, delta, vanishes_right, drift_scale=0.0):
    """max row error / max|Lf| of the graded stencil on its quadratic, in
    units of eps (n + 1)^2, against a D(Df) + b Df + c f from the analytic
    order-delta derivatives; drift_scale perturbs the (1 - delta)
    x^(1 - 2 delta) D1 term by that relative amount.  x^2 is 1 at x = 1,
    where the last row reads the clamped ghost 0, so that row gets the
    ghost term w[2, n - 1] * 1 back."""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(delta))
    grid = GridPair.build(n, p.delta)
    x, f = grid.x_nodes, QUADRATICS[vanishes_right]
    w = dd._graded_stencil(p, grid)
    w1, _ = dd._difference_stencils(x)
    w = w + drift_scale * p.a * ((1.0 - delta) * pow_arr(x, 1.0 - 2.0 * delta)) * w1
    want = (p.a * conf_derivative_iterated(f, p.delta, 2, x)
            + p.b * conf_derivative_iterated(f, p.delta, 1, x) + p.c * f(x))
    got = _band_apply(w, f(x))
    if not vanishes_right:
        got[-1] += w[2, -1]
    return np.max(np.abs(got - want)) / np.max(np.abs(want)) / (EPS * (n + 1) ** 2)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("delta", [0.02, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("vanishes_right", [False, True])
def test_stencil_is_exact_on_quadratics(n, delta, vanishes_right):
    """every row, both boundary rows included, gives the operator's value
    to rounding; a 1e-6 relative error in the (1 - delta) x^(1 - 2 delta)
    D1 term, which every report check passes, reads three orders of
    magnitude above the gate"""
    assert quadratic_error(n, delta, vanishes_right) <= 2.0
    if delta < 1.0:
        assert quadratic_error(n, delta, vanishes_right, drift_scale=1e-6) > 1e3


def test_conjugacy_residual_is_nan_out_of_double_range():
    """at delta = 0.02 and n = 2048 the node-gap products near x ~ 1e-166
    underflow, and the weights of the first rows overflow; those rows lie
    outside the window, yet the residual must not read finite"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.02))
    grid = GridPair.build(2048, p.delta)
    graded = dd._graded_stencil(p, grid)
    assert not np.all(np.isfinite(graded))
    assert np.all(np.isfinite(graded[:, dd._window_rows(grid)]))
    (n0, coarse), (n1, fine) = conjugacy_residual(p, (1024, 2048))
    assert (n0, n1) == (1024, 2048)
    assert np.isfinite(coarse) and np.isnan(fine)
    assert np.isnan(empirical_orders([(n0, coarse), (n1, fine)])[0])


# conjugacy_residual at the default coefficients, bit for bit, as it read
# while the residual ran on stencils with a one-sided free right closure:
# the window never reads the last row, so clamping it moved nothing
CONJUGACY_PINS = {
    0.3: ((64, "0x1.4edfcaea7ce10p-1"), (128, "0x1.9d9dd71c23540p-3"),
          (256, "0x1.9c257caab8b00p-5")),
    0.5: ((64, "0x1.076b3091effa0p-3"), (128, "0x1.395021a44ab00p-5"),
          (256, "0x1.3882e274f3e00p-7")),
    0.7: ((64, "0x1.ae61203c3d218p-7"), (128, "0x1.24c9ea7436840p-8"),
          (256, "0x1.213f1c7340580p-10")),
    0.02: ((1024, "0x1.e526b14d63800p-4"), (2048, "nan")),
}


@pytest.mark.parametrize("delta", sorted(CONJUGACY_PINS))
def test_conjugacy_residual_is_pinned(delta):
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(delta))
    pins = CONJUGACY_PINS[delta]
    got = conjugacy_residual(p, [n for n, _ in pins])
    assert [(n, float(r).hex()) for n, r in got] == list(pins)


def test_conjugacy_residual_builds_no_dense_matrix():
    """an n x n array at n = 65,536 would take 34 GB; the residual sits at
    its rounding floor there, so only its finiteness is asserted"""
    tracemalloc.start()
    try:
        [(_, residual)] = conjugacy_residual(PARAMS, (65536,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(residual)
    assert peak < 64 * 2 ** 20


def test_dsw_probe_builds_no_dense_matrix():
    """one n x n float64 array at n = 4096 takes 134 MB; the probe applies
    the twin's bands instead"""
    fam = EigenfunctionFamily(1.0, 1.0, 0.4)
    rect = LambdaRectangle(center=0j, re_half=2.0, im_half=12.0)
    tracemalloc.start()
    try:
        probe = dsw_hypotheses_probe(fam, rect, n=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(probe["eigen_residual"][0])
    assert peak < 32 * 2 ** 20


# operator pair ------------------------------------------------------------------

def test_real_generators_are_stored_real():
    grid = GridPair.build(32, PARAMS.delta)
    for g in (build_conformable_operator(PARAMS, grid),
              build_classical_operator(PARAMS, grid)):
        assert g.entries.dtype == np.float64


def test_scalar_mapping_matches_dense_conjugation():
    """the dense conjugation eye/sqrt(d) @ A @ eye*sqrt(d) by the unitary
    leaves the graded operator as it is, up to rounding, which is why the
    pair is compared without it"""
    for n in (32, 64):
        grid = GridPair.build(n, PARAMS.delta)
        graded = build_conformable_operator(PARAMS, grid)
        root = np.sqrt(PARAMS.delta.delta)
        dense = (np.eye(n) / root) @ graded.entries @ (np.eye(n) * root)
        assert np.max(np.abs(graded.entries - dense)) <= 1e-15 * np.max(
            np.abs(dense))


@pytest.mark.parametrize("n", [64, 128])
def test_stepped_mild_errors_match_dense_expm(n):
    """advancing the corpus block step by step reproduces the per-time
    difference of the two dense exponentials."""
    t_list = (0.25, 0.5, 1.0)
    graded, twin, block, rows = graded_pair(PARAMS, n)
    out = mild_solution_residuals(PARAMS, n, t_list)
    for t, rec in zip(t_list, out["records"]):
        gap = (expm(t * graded.entries) - expm(t * twin.entries)) @ block
        want = np.max(np.abs(gap[rows]))
        assert rec["t"] == t
        assert rec["error"] == pytest.approx(want, rel=1e-10)


def test_mild_solution_rejects_decreasing_times():
    with pytest.raises(ValueError):
        mild_solution_residuals(PARAMS, 32, (0.5, 0.25))


def test_operators_coincide_at_order_one():
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0))
    grid = GridPair.build(40, Order(1.0))
    a = build_conformable_operator(p, grid)
    b = build_classical_operator(p, grid)
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("n", [16, 257])
@pytest.mark.parametrize("delta", [0.02, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("scattered", [False, True])
def test_twin_is_the_constant_coefficient_stencil_bitwise(n, delta, scattered):
    """the order-1 graded routine on the uniform nodes is a" D2 + b" D1 + c I,
    as the builder's scattered entries and as its bands applied to the
    identity"""
    p = DriftDiffusionParams(1.3, 0.7, 0.4, Order(delta))
    grid = GridPair.build(n, Order(delta))
    a_t, b_t, c = parameter_transfer(p)
    d1, d2 = loop_difference_matrices(grid.xi_nodes)
    want = a_t * d2 + b_t * d1 + c * np.eye(n)
    if scattered:
        got = build_classical_operator(p, grid).entries
    else:
        got = _band_apply(dd._twin_stencil(p, grid), np.eye(n))
    assert got.tobytes() == want.tobytes()


def test_builders_reject_mismatched_grid():
    grid = GridPair.build(16, Order(0.4))
    with pytest.raises(ValueError):
        build_conformable_operator(PARAMS, grid)
    with pytest.raises(ValueError):
        build_classical_operator(PARAMS, grid)


def test_builders_reject_the_free_closure():
    """every operator is clamped at both ends; clamp_right=True is the only
    value the builders accept"""
    grid = GridPair.build(16, PARAMS.delta)
    for build in (build_conformable_operator, build_classical_operator):
        assert np.array_equal(build(PARAMS, grid, clamp_right=True).entries,
                              build(PARAMS, grid).entries)
        with pytest.raises(ValueError, match="free right closure"):
            build(PARAMS, grid, clamp_right=False)


def test_conjugacy_residual_converges():
    pairs = conjugacy_residual(PARAMS, (64, 128))
    orders = empirical_orders(pairs)
    assert orders[0] >= 1.5, pairs


def test_conjugacy_exact_at_order_one():
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0))
    pairs = conjugacy_residual(p, (64,))
    assert pairs[0][1] <= 1e-12


def test_mild_solution_bound():
    out = mild_solution_residuals(PARAMS, 64, (0.25, 0.5, 1.0))
    assert out["n"] == 64
    for rec in out["records"]:
        assert rec["error"] <= rec["bound"], rec


def test_derivative_identity_routes_agree():
    u = FunctionHandle(np.sin, np.cos, lambda x: -np.sin(x))
    xi = np.linspace(0.1, 0.95, 30)
    residuals = derivative_identity_residuals(u, Order(0.5), xi)
    assert max(residuals) <= 1e-8


# eigenfunction family -------------------------------------------------------------

def test_roots_solve_characteristic_polynomial():
    fam = EigenfunctionFamily(1.0, 1.0, 0.4)
    for lam in (0.0, 1.5 + 2.0j, -0.3j):
        for r in fam.root_map(lam):
            val = fam.diffusion * r**2 + fam.drift * r + fam.reaction - lam
            assert abs(val) <= 1e-12 * (1.0 + abs(lam))


def test_confluent_point_value():
    # roots coincide where the discriminant vanishes: c - b^2/(4a)
    fam = EigenfunctionFamily(1.0, 1.0, 0.4)
    assert fam.confluent_point() == pytest.approx(0.15, rel=1e-12)
    r1, r2 = fam.root_map(fam.confluent_point())
    assert abs(r1 - r2) <= 1e-12


def test_eigenfunction_satisfies_operator_equation():
    fam = EigenfunctionFamily(1.0, 1.0, 0.4)
    xi = np.linspace(0.05, 0.95, 17)
    for lam in (0.5 + 4.0j, -2.0j, 1.0):
        phi, d1, d2 = (fam.evaluate(lam, xi, k=k) for k in (0, 1, 2))
        lhs = fam.diffusion * d2 + fam.drift * d1 + fam.reaction * phi
        assert np.allclose(lhs, lam * phi, rtol=1e-10, atol=1e-10)


def _reference_derivatives(fam, lam, xi):
    """phi, phi', phi'' and phi'''' as separate closed forms per branch,
    the formulas that evaluate(k) replaced."""
    mu1, mu2 = fam.root_map(lam)
    if abs(mu1 - mu2) < 1e-8:
        mu = -fam.drift / (2.0 * fam.diffusion)
        e = np.exp(mu * xi)
        return {0: xi * e, 1: e * (1.0 + mu * xi),
                2: e * (2.0 * mu + mu ** 2 * xi),
                4: e * (mu ** 4 * xi + 4.0 * mu ** 3)}
    e1, e2 = np.exp(mu1 * xi), np.exp(mu2 * xi)
    return {0: (e1 - e2) / (mu1 - mu2),
            1: (mu1 * e1 - mu2 * e2) / (mu1 - mu2),
            2: (mu1 ** 2 * e1 - mu2 ** 2 * e2) / (mu1 - mu2),
            4: (mu1 ** 4 * e1 - mu2 ** 4 * e2) / (mu1 - mu2)}


def test_evaluate_matches_the_separate_closed_forms():
    """evaluate(k) reproduces every branch formula exactly (array_equal,
    so a signed zero at xi = 0 counts as equal), confluent point included."""
    xi = np.linspace(0.0, 1.0, 65)
    lams = [complex(re, im) for re in np.linspace(-4.0, 4.0, 19)
            for im in np.linspace(-15.0, 15.0, 16)]
    cases = 0
    for a, b, c in ((1.0, 1.0, 0.4), (0.5, 2.0, 0.1), (2.0, 0.3, 1.5)):
        for d in (0.3, 0.7, 1.0):
            fam = EigenfunctionFamily.from_params(
                DriftDiffusionParams(a, b, c, Order(d)))
            for lam in lams + [fam.confluent_point()]:
                want = _reference_derivatives(fam, lam, xi)
                for k, ref in want.items():
                    assert np.array_equal(fam.evaluate(lam, xi, k=k), ref), \
                        (a, b, c, d, lam, k)
                cases += 1
    assert cases == 3 * 3 * 305


def test_divided_difference_is_continuous_at_confluence():
    """the family stays well defined as the two roots collide."""
    fam = EigenfunctionFamily(1.0, 1.0, 0.4)
    star = fam.confluent_point()
    xi = np.linspace(0.0, 1.0, 33)
    base = fam.evaluate(star, xi)
    eps = 1e-6 * (1.0 + abs(star))
    for lam in (star + eps, star - eps, star + 1j * eps):
        assert np.max(np.abs(fam.evaluate(lam, xi) - base)) <= 1e-4


def test_family_from_params_uses_transferred_coefficients():
    fam = EigenfunctionFamily.from_params(PARAMS)
    assert (fam.diffusion, fam.drift, fam.reaction) == parameter_transfer(PARAMS)
