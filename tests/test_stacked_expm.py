"""The batched matrix exponential behind every dense flow.

semigroup.expm takes a whole (m, n, n) stack at once.  Each slice's Pade
degree and squarings depend on that slice alone, so a slice of a mixed
stack must equal the lone call bit for bit; a diagonal slice is exp of its
diagonal, as scipy.linalg.expm returns it; a triangular slice keeps exact
zeros outside its triangle and exp(s a_ii) on its diagonal; the entries
the squarings drop as negligible (below 2^-511 and 2^-80 of the slice's
largest) cost no accuracy, neither where an exponential decays away from a
band nor where a whole slice is small; and an overflowing slice comes back
non-finite without a warning, for _flow to refuse.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from confsemi import (GeneratorMatrix, dirichlet_second_difference,
                      evolve_classical, taylor_matrix_exp)
from confsemi import semigroup as sg
from confsemi.semigroup import _flow

SCALES = np.geomspace(1e-6, 300.0, 12)


def mixed_stack(n, dtype, seed=0):
    """diagonal, upper, lower and full slices (complex ones too, for a
    complex stack) over 1-norms from 1e-6 to 300, decaying so that every
    exponential stays in range"""
    rng = np.random.default_rng(seed)
    slices = []
    for scale in SCALES:
        base = rng.standard_normal((n, n))
        if dtype is complex:
            base = base + 1j * rng.standard_normal((n, n))
        for shape in (np.diag(np.diag(base)), np.triu(base), np.tril(base),
                      base):
            shape = shape * (scale / np.linalg.norm(shape, 1))
            slices.append(shape - scale * np.eye(n))
    return np.stack(slices).astype(dtype)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 3, 4, 17, 40])
def test_stack_slices_equal_lone_calls_bit_for_bit(n, dtype):
    """the stack ascends in 1-norm, so its squaring counts ascend too; the
    reversed stack and a shuffle square them in descending and mixed order"""
    ascending = mixed_stack(n, dtype)
    shuffle = np.random.default_rng(5).permutation(len(ascending))
    for stack in (ascending, ascending[::-1], ascending[shuffle]):
        got = sg.expm(stack)
        for k, a in enumerate(stack):
            assert np.array_equal(got[k], sg.expm(a[None])[0]), k
            assert np.array_equal(got[k], sg.expm(a))


@pytest.mark.parametrize("dtype", [float, complex])
def test_one_by_one_slices_are_exp(dtype):
    stack = np.array([-3.0, 0.0, 0.5, 2.0 - 1.0j if dtype is complex else 2.0],
                     dtype=dtype)[:, None, None]
    assert np.array_equal(sg.expm(stack), np.exp(stack))


@pytest.mark.parametrize("n", [3, 17, 40])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stack_matches_scipy_and_the_series(n, dtype):
    """every slice within 1e-12 relative of scipy's expm and, where the
    series oracle is affordable, of taylor_matrix_exp"""
    stack = mixed_stack(n, dtype, seed=1)
    for got, a in zip(sg.expm(stack), stack):
        for want in (scipy_expm(a), taylor_matrix_exp(a)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("diagonal", [
    [-40.0, -80.0], [-0.3 + 20.0j, -10.0 + 0.0j], [1e-9, -3.0, 700.0]],
    ids=["real", "complex", "wide"])
def test_diagonal_slice_is_scipys_bit_for_bit(diagonal):
    a = np.diag(diagonal)
    assert np.array_equal(sg.expm(a[None])[0], scipy_expm(a))


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("s", [1e-3, 1.0, 40.0, 400.0])
def test_triangle_keeps_exact_zeros_and_diagonal(s, lower):
    """at s = 400 the slice squares eight times and more"""
    a = np.array([[-1.0, 2.0, 0.0, 1.0], [0.0, -0.5, 3.0, 0.0],
                  [0.0, 0.0, -2.0, 1.0], [0.0, 0.0, 0.0, -0.3]])
    a = a.T if lower else a
    got = sg.expm(s * a)
    outside = np.triu(np.ones((4, 4), bool), 1) if lower else np.tril(
        np.ones((4, 4), bool), -1)
    assert np.all(got[outside] == 0.0)
    assert np.array_equal(np.diag(got), np.exp(s * np.diag(a)))
    want = scipy_expm(s * a)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def conditioning_bound(sa):
    """4 n eps max(1, ||sA||_1), the relative error test_referee allows"""
    return 4 * len(sa) * np.finfo(float).eps * max(1.0, np.linalg.norm(sa, 1))


@pytest.mark.parametrize("s", [1e-3, 0.05])
def test_banded_decay_matches_the_spectral_formula(s):
    """exp(sL) of the Dirichlet Laplacian decays away from its band: at
    n = 192 the squarings drop thousands of entries at each of their first
    levels; the sine eigenpairs give the flow in closed form"""
    n = 192
    lap = dirichlet_second_difference(n).entries
    k = np.arange(1, n + 1)
    lam = -4.0 * lap[0, 1] * np.sin(k * np.pi / (2 * (n + 1))) ** 2
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) * np.pi / (n + 1))
    want = (q * np.exp(s * lam)) @ q.T
    got = sg.expm(s * lap)
    assert (np.max(np.abs(got - want))
            <= conditioning_bound(s * lap) * np.max(np.abs(want)))


def test_small_slice_keeps_its_entries():
    """exp(A - 700 I) = e^-700 exp(A), entries 2e-306 to 1e-304: the
    matrix the last squaring takes peaks near 1e-152, and its entries below
    2^-511 stay, as they are not below 2^-80 of that peak"""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    a /= np.linalg.norm(a, 1)
    shifted = a - 700.0 * np.eye(6)
    got = sg.expm(shifted)
    want = np.exp(-700.0) * sg.expm(a)
    assert (np.max(np.abs(got - want))
            <= conditioning_bound(shifted) * np.max(np.abs(want)))


@pytest.mark.parametrize("dtype, want", [(float, np.float64),
                                         (np.float32, np.float64),
                                         (int, np.float64),
                                         (complex, np.complex128)])
def test_dtype_and_shape(dtype, want):
    a = (np.arange(18).reshape(2, 1, 3, 3) % 4).astype(dtype)
    got = sg.expm(a)
    assert got.dtype == want and got.shape == a.shape


def test_overflowing_slice_is_non_finite_without_warning():
    """the middle slice leaves double range; its neighbours stay as they
    are alone, and _flow refuses the stack"""
    a = np.array([[1.0, 1.0], [0.0, 2.0]]) + np.array([[0.0, 0.0], [1.0, 0.0]])
    stack = np.stack([a, 1000.0 * a, -a])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sg.expm(stack)
        assert not np.all(np.isfinite(got[1]))
        for k in (0, 2):
            assert np.array_equal(got[k], sg.expm(stack[k]))
        g = GeneratorMatrix(a, 1.0)
        x = np.ones((3, 2), dtype=complex)
        with pytest.raises(FloatingPointError):
            _flow(g, np.array([1.0, 1000.0, 2.0]), x)
        with pytest.raises(FloatingPointError):
            evolve_classical(g, 1000.0, x[0])
