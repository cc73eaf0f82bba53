"""The flushed scaling-and-squaring exponential against the dense oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from confsemi import drift_diffusion as dd
from confsemi import (Clock, ConformableSemigroup, DriftDiffusionParams,
                      Order, contraction_check,
                      dirichlet_second_difference, evolve_classical,
                      mild_solution_residuals, taylor_matrix_exp)
from confsemi.semigroup import _scale_for_squaring, _square_flushed


def flushed_exp(matrix):
    scaled, k = _scale_for_squaring(matrix)
    return _square_flushed(expm(scaled), k)


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def has_no_subnormal(matrix):
    size = np.abs(matrix)
    return bool(np.all((size == 0.0) | (size >= np.finfo(float).tiny)))


def drift_diffusion_matrices():
    """The mapped graded operator and its classical twin, both closures."""
    out = []
    for n in (32, 128):
        for delta in (0.05, 0.3, 1.0):
            p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(delta))
            for clamp_right in (True, False):
                mapped, classical, _, _ = dd._mapped_pair(
                    p, n, clamp_right, dd._CLAMPED_CORPUS)
                tag = f"n={n},delta={delta},clamp={clamp_right}"
                out += [(f"mapped[{tag}]", mapped),
                        (f"classical[{tag}]", classical)]
    return out


DD_CASES = drift_diffusion_matrices()


@pytest.mark.parametrize("n", [32, 64, 128, 256])
@pytest.mark.parametrize("s", [1e-4, 0.01, 0.5])
def test_laplacian_matches_oracles(n, s):
    matrix = s * dirichlet_second_difference(n).entries
    got = flushed_exp(matrix)
    assert max_rel(got, expm(matrix)) <= 1e-14
    assert has_no_subnormal(got)
    if n <= 32:
        assert max_rel(got, taylor_matrix_exp(matrix).real) <= 1e-12


# the graded operator has spurious boundary modes growing at rates up to
# ~1.6e4 for delta < 1, so its flow overflows beyond a step of ~0.04
@pytest.mark.parametrize("name, matrix", DD_CASES, ids=[c[0] for c in DD_CASES])
@pytest.mark.parametrize("step", [1e-3, 0.01])
def test_drift_diffusion_pair_matches_oracles(name, matrix, step):
    got = flushed_exp(step * matrix)
    assert max_rel(got, expm(step * matrix)) <= 1e-14
    assert has_no_subnormal(got)
    if matrix.shape[0] <= 32:
        assert max_rel(got, taylor_matrix_exp(step * matrix).real) <= 1e-12


@pytest.mark.parametrize("n", [16, 32, 96])
@pytest.mark.parametrize("dtype", [float, complex])
def test_random_dense_matches_oracles(n, dtype):
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        matrix += 1j * rng.standard_normal((n, n))
    matrix *= 30.0 / np.linalg.norm(matrix, 1)
    got = flushed_exp(matrix)
    assert _scale_for_squaring(matrix)[1] > 0
    assert max_rel(got, expm(matrix)) <= 1e-14
    assert has_no_subnormal(got)
    if n <= 32:
        assert max_rel(got, taylor_matrix_exp(matrix)) <= 1e-12


def upper_bidiagonal(n):
    return 40.0 * (np.diag(-np.arange(1.0, n + 1)) + np.diag(np.ones(n - 1), 1))


@pytest.mark.parametrize("matrix", [
    np.array([[0.0, 30.0], [0.0, 0.0]]),
    np.diag([-40.0, -80.0]),
    np.diag([-0.3 + 20.0j, -10.0 + 0.0j]),
    np.array([[-1.0, 2.0, 0.0, 1.0], [0.0, -0.5, 3.0, 0.0],
              [0.0, 0.0, -2.0, 1.0], [0.0, 0.0, 0.0, 0.3]]) * 9.0,
    upper_bidiagonal(64),
    upper_bidiagonal(64).T,
], ids=["nilpotent", "diag", "diag_complex", "nonnormal4", "upper", "lower"])
def test_triangular_input_keeps_expm_bitwise(matrix):
    scaled, k = _scale_for_squaring(matrix)
    assert k == 0 and scaled is matrix
    assert np.array_equal(_square_flushed(expm(scaled), k), expm(matrix))


def test_small_norm_input_is_not_squared():
    matrix = 1e-3 * dirichlet_second_difference(16).entries
    assert _scale_for_squaring(matrix)[1] == 0
    assert np.array_equal(flushed_exp(matrix), expm(matrix))


def test_evolution_uses_the_flushed_flow():
    g = dirichlet_second_difference(64)
    x = np.sin(np.arange(1, 65) * np.pi / 65).astype(complex)
    want = expm(0.05 * g.entries) @ x
    got = evolve_classical(g, 0.05, x)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_contraction_check_matches_plain_expm(n, delta):
    g = dirichlet_second_difference(n)
    clock = Clock(Order(delta))
    t_grid = (0.1, 1.0, 5.0)
    residual, params = contraction_check(ConformableSemigroup(g, clock), t_grid)
    want = {f"t={t}": g.w_operator_norm(expm(clock.psi(t) * g.entries))
            for t in t_grid}
    for key, norm in want.items():
        assert params[key] == pytest.approx(norm, rel=1e-13)
    assert residual == pytest.approx(max(want.values()) - 1.0, rel=1e-13)


@pytest.mark.parametrize("n", [64, 256])
def test_mild_residuals_match_plain_expm(n):
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
    t_list = (0.25, 0.5, 1.0)
    mapped, classical, block, rows = dd._mapped_pair(p, n, True,
                                                      dd._CLAMPED_CORPUS)
    out = mild_solution_residuals(p, n, t_list)
    graded_state, classical_state = block, block
    for t, step, rec in zip(t_list, np.diff([0.0, *t_list]), out["records"]):
        graded_state = expm(step * mapped) @ graded_state
        classical_state = expm(step * classical) @ classical_state
        want = np.max(np.abs((graded_state - classical_state)[rows]))
        assert rec["error"] == pytest.approx(want, rel=1e-13)
