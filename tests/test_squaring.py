"""The dense exponential route of evolve_classical against the oracles.

A generator without eigenpairs flows by semigroup.expm, the batched
scaling and squaring of Al-Mohy and Higham: evolve_classical must return
semigroup.expm(sA) x bit for bit, agree with scipy.linalg.expm at every
size within a bound set by the exponential's conditioning, and agree
within 1e-12 relative with the in-repo series oracle taylor_matrix_exp
where that oracle is affordable (n <= 32).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from confsemi import (DriftDiffusionParams, GeneratorMatrix, Order,
                      dirichlet_second_difference, evolve_classical,
                      mild_solution_residuals, taylor_matrix_exp)
from confsemi import semigroup as sg
from conftest import graded_pair


def dense_flow(matrix, s=1.0):
    """exp(s matrix) as evolve_classical computes it for a generator
    without eigenpairs, applied to the identity"""
    n = matrix.shape[0]
    g = GeneratorMatrix(matrix, 1.0 / (n + 1))
    assert g.spectrum is None
    return evolve_classical(g, s, np.eye(n))


def assert_near(got, want, sa):
    """got within 8 n eps max(1, ||sA||_1) of scipy's want, relative to its
    largest entry: test_referee holds each of the two kernels to half that
    from the truth, a bound set by the exponential's conditioning"""
    bound = 8 * len(sa) * np.finfo(float).eps * max(1.0, np.linalg.norm(sa, 1))
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def assert_matches_oracles(matrix, s):
    got = dense_flow(matrix, s)
    assert np.array_equal(got, sg.expm(s * matrix) @ np.eye(len(matrix),
                                                              dtype=complex))
    assert_near(got, expm(s * matrix), s * matrix)
    if matrix.shape[0] <= 32:
        want = taylor_matrix_exp(s * matrix)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def drift_diffusion_matrices():
    """The graded operator and its classical twin; the graded cases keep
    the ids "mapped[...]" they had while the graded operator was conjugated
    by the scalar unitary, and every case the tag clamp=True it had while a
    free right closure was on offer."""
    out = []
    for n in (32, 128):
        for delta in (0.05, 0.3, 1.0):
            p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(delta))
            graded, twin, _, _ = graded_pair(p, n)
            tag = f"n={n},delta={delta},clamp=True"
            out += [(f"mapped[{tag}]", graded.entries),
                    (f"classical[{tag}]", twin.entries)]
    return out


DD_CASES = drift_diffusion_matrices()


@pytest.mark.parametrize("n", [32, 64, 128, 256])
@pytest.mark.parametrize("s", [1e-4, 0.01, 0.5])
def test_laplacian_matches_oracles(n, s):
    assert_matches_oracles(dirichlet_second_difference(n).entries, s)


# the graded operator has spurious boundary modes growing at rates up to
# ~1.6e4 for delta < 1, so its flow overflows beyond a step of ~0.04
@pytest.mark.parametrize("name, matrix", DD_CASES, ids=[c[0] for c in DD_CASES])
@pytest.mark.parametrize("step", [1e-3, 0.01])
def test_drift_diffusion_pair_matches_oracles(name, matrix, step):
    assert_matches_oracles(matrix, step)


@pytest.mark.parametrize("n", [16, 32, 96])
@pytest.mark.parametrize("dtype", [float, complex])
def test_random_dense_matches_oracles(n, dtype):
    """1-norm 30, so the kernel scales and squares"""
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        matrix += 1j * rng.standard_normal((n, n))
    matrix *= 30.0 / np.linalg.norm(matrix, 1)
    assert_matches_oracles(matrix, 1.0)


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
    """the semigroup suite's fixtures are triangular; their flow is
    semigroup.expm's, which squares triangular input with the exact diagonal"""
    got = dense_flow(matrix)
    assert np.array_equal(got, sg.expm(matrix))
    assert_near(got, expm(matrix), matrix)


def test_evolution_uses_plain_expm():
    """a generator without eigenpairs flows by semigroup.expm, bit for bit,
    at a step where it squares (1-norm 0.05 * 4 * 65**2 = 845)"""
    g = GeneratorMatrix(dirichlet_second_difference(64).entries, 1.0 / 65)
    x = np.sin(np.arange(1, 65) * np.pi / 65).astype(complex)
    got = evolve_classical(g, 0.05, x)
    assert np.array_equal(got, sg.expm(0.05 * g.entries) @ x)
    assert_near(got, expm(0.05 * g.entries) @ x, 0.05 * g.entries)


@pytest.mark.parametrize("n", [64, 256])
def test_mild_residuals_match_plain_expm(n):
    """the graded flow of mild_solution_residuals against plain expm of the
    graded operator; the twin takes its own route (its closed form) on both
    sides"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
    t_list = (0.25, 0.5, 1.0)
    graded, twin, block, rows = graded_pair(p, n)
    out = mild_solution_residuals(p, n, t_list)
    graded_state, twin_state = block, block
    for t, step, rec in zip(t_list, np.diff([0.0, *t_list]), out["records"]):
        graded_state = expm(step * graded.entries) @ graded_state
        twin_state = evolve_classical(twin, step, twin_state)
        want = np.max(np.abs((graded_state - twin_state)[rows]))
        assert rec["error"] == pytest.approx(want, rel=1e-13)
