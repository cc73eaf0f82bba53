"""The clamped drift-diffusion twin in its closed-form eigenbasis, against
the dense oracles and the dense route it falls back to."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from confsemi import drift_diffusion as dd
from confsemi import semigroup as sg
from confsemi import suites
from confsemi import (ConformableSemigroup, DriftDiffusionParams,
                      GeneratorMatrix, GridPair, Order,
                      build_classical_operator, contraction_check,
                      dirichlet_second_difference, evolve_classical,
                      resolvent_bound_check, taylor_matrix_exp)
from confsemi.config import default_config
from confsemi.semigroup import _DEFECT_ULPS, _sine_basis

EPS = np.finfo(float).eps


def twin(a, b, c, delta, n):
    p = DriftDiffusionParams(a, b, c, Order(delta))
    grid = GridPair.build(n, p.delta)
    return build_classical_operator(p, grid), grid


def profile(grid):
    return (grid.xi_nodes * (1.0 - grid.xi_nodes)).astype(complex)


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def dense(g, s, x):
    """the dense route of evolve_classical"""
    return sg.expm(s * g.entries) @ x


# agreement with the dense oracles ---------------------------------------------

TWIN_CELLS = list(itertools.product((16, 32, 64), (0.5, 1.0, 3.0),
                                    (0.3, 1.0, 4.0), (0.1, 0.4, 2.0),
                                    (0.3, 0.5, 1.0)))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_closed_form_flow_matches_expm_and_taylor(n):
    """over a grid of (a, b, c, delta) every certified twin flows within
    1e-10 relative of scipy's expm and of the series oracle (measured
    1.7e-11 and 4.3e-11), at small steps and at the sweep's clocks"""
    certified = 0
    for _, a, b, c, delta in (cell for cell in TWIN_CELLS if cell[0] == n):
        g, grid = twin(a, b, c, delta, n)
        if not g.certified:
            continue
        certified += 1
        x = profile(grid)
        for s in (1e-3, 0.1, 1.0, 2.0 / delta):
            got = evolve_classical(g, s, x)
            assert rel_gap(got, expm(s * g.entries) @ x) <= 1e-10
            assert rel_gap(got, taylor_matrix_exp(s * g.entries) @ x) <= 1e-10
    assert certified >= 70


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("peclet", [0.05, 0.2, 0.5, 0.99, 1.01])
def test_cells_near_the_peclet_limit(n, peclet):
    """pairs exist exactly below cell Peclet number 1; the similarity's
    condition grows like ((1 + P)/(1 - P))**((n - 1)/2), so near the limit
    the pairs stay uncertified and the flow is dense, and either way it
    matches expm.  The drift reaches 2(n + 1), so the steps stay short of
    the decay time of the state."""
    h = 1.0 / (n + 1)
    g, grid = twin(1.0, peclet * 2.0 / h, 0.4, 1.0, n)
    assert (g.spectrum is not None) == (peclet < 1.0)
    if g.spectrum is not None:
        condition = float(np.max(g.similarity) / np.min(g.similarity))
        want = ((1.0 + peclet) / (1.0 - peclet)) ** (0.5 * (n - 1))
        assert condition == pytest.approx(want, rel=1e-9)
        assert g.certified == (condition * g.spectral_defect
                               <= _DEFECT_ULPS * EPS * (n + 1))
    x = profile(grid)
    for s in (1e-4, 1e-3, 1e-2):
        got = evolve_classical(g, s, x)
        assert rel_gap(got, expm(s * g.entries) @ x) <= 1e-10
        if not g.certified:
            assert np.array_equal(got, dense(g, s, x))


def test_eigenpairs_reproduce_the_entries():
    """D V diag(lam) V^T D^-1 rebuilds the twin entry by entry"""
    g, _ = twin(1.0, 1.0, 0.4, 0.5, 32)
    scale = g.similarity[:, None]
    rebuilt = scale * ((g.eigvecs * g.spectrum) @ g.eigvecs.T) / scale.T
    assert np.max(np.abs(rebuilt - g.entries)) <= 64.0 * EPS * np.max(
        np.abs(g.entries))


def test_block_flow_matches_column_by_column():
    """a block of columns flows as each column does, bit for bit"""
    g, grid = twin(1.0, 1.0, 0.4, 0.5, 32)
    block = np.column_stack([profile(grid), 1j * np.sin(np.pi * grid.xi_nodes)])
    got = evolve_classical(g, 0.3, block)
    for j in range(block.shape[1]):
        assert np.array_equal(got[:, j], evolve_classical(g, 0.3, block[:, j]))


# the certification gate -----------------------------------------------------

@pytest.mark.parametrize("n", [32, 128])
def test_perturbed_entry_fails_certification_and_flows_densely(n):
    """a 1e-6 relative change in one twin entry voids the pairs; the sweep's
    law cell is then bitwise that of the same entries without pairs"""
    g, grid = twin(1.0, 1.0, 0.4, 0.5, n)
    assert g.certified and g.eigenbasis_flow
    entries = g.entries.copy()
    entries[3, 4] *= 1.0 + 1e-6
    pairs = (g.spectrum, g.eigvecs, g.similarity)
    bad = GeneratorMatrix(entries, g.weight, g.label, pairs,
                          eigenbasis_flow=True)
    bare = GeneratorMatrix(entries, g.weight, g.label)
    assert not bad.certified and bad.spectral_defect > 1e3 * EPS * (n + 1)
    x = profile(grid)
    for s in (0.1, 1.0, 4.0):
        assert np.array_equal(evolve_classical(bad, s, x),
                              evolve_classical(bare, s, x))
    cfg = replace(default_config(), sweep_delta_list=(0.5,),
                  sweep_n_list=(n,))

    def sweep_with(generator):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, "build_classical_operator",
                       lambda *args, **kwargs: generator)
            return suites.run_sweep(cfg)

    assert sweep_with(bad) == sweep_with(bare)


def test_order_floor_twin_is_dense():
    """at delta = 0.02 the similarity's condition is about 1e11: the pairs
    exist but are not certified, so the flow is the dense one"""
    g, grid = twin(1.0, 1.0, 0.4, 0.02, 64)
    condition = float(np.max(g.similarity) / np.min(g.similarity))
    assert 1e10 < condition < 1e12
    assert g.spectral_defect <= EPS * (64 + 1)
    assert not g.certified
    x = profile(grid)
    for s in (0.1, 1.0):
        assert np.array_equal(evolve_classical(g, s, x), dense(g, s, x))


def test_overflowing_exponent_raises_without_nan():
    """exp(s max lam) beyond double range raises FloatingPointError before
    any product is formed: no overflow warning, no NaN"""
    g, grid = twin(1.0, 1.0, 8.0, 0.5, 32)
    assert g.certified
    top = float(np.max(g.spectrum))
    assert top > 0.0
    x = profile(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_classical(g, 700.0 / top, x)
        with pytest.raises(FloatingPointError, match="overflows"):
            evolve_classical(g, 720.0 / top, x)


# the sweep ----------------------------------------------------------------------

def test_sweep_columns_beside_the_law_are_unchanged():
    """the conjugacy and correspondence columns do not touch the twin's
    flow: with and without its pairs they agree bit for bit, and the law
    column reads about 1e-17 in the certified basis"""
    cfg = replace(default_config(), sweep_delta_list=(0.3, 0.7, 1.0),
                  sweep_n_list=(32, 64))
    closed = suites.run_sweep(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "_toeplitz_eigenpairs", lambda *args: None)
        dense_rows = suites.run_sweep(cfg)
    for got, want in zip(closed, dense_rows):
        assert {k: v for k, v in got.items() if k != "law_residual"} == {
            k: v for k, v in want.items() if k != "law_residual"}
        assert got["law_residual"] <= 1e-16
        assert want["law_residual"] <= 1e-12


# the representation ---------------------------------------------------------------

def test_sine_basis_is_built_once_per_size_and_shared():
    lap = dirichlet_second_difference(48)
    g, _ = twin(1.0, 1.0, 0.4, 0.5, 48)
    basis, defect = _sine_basis(48)
    assert lap.eigvecs is basis and g.eigvecs is basis
    assert not basis.flags.writeable
    assert _sine_basis(48)[1] == defect <= EPS * 49


@pytest.mark.parametrize("scale, error", [
    (np.array([1.0, 0.0]), ValueError),
    (np.array([1.0, -2.0]), ValueError),
    (np.array([1.0]), ValueError),
    (np.array([1.0, math.inf]), FloatingPointError),
])
def test_similarity_is_validated(scale, error):
    with pytest.raises(error):
        GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "",
                        (np.array([-1.0, -2.0]), np.eye(2), scale))


def test_eigenbasis_flow_needs_eigenpairs():
    with pytest.raises(ValueError, match="eigenbasis_flow"):
        GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "", eigenbasis_flow=True)


def test_condition_scales_the_certificate():
    """a defect of one ulp in an eigenvalue is unchanged by a diagonal
    similarity; its certificate holds while condition * defect stays
    within _DEFECT_ULPS eps (n + 1) and fails beyond"""
    entries = np.diag([-1.0, -2.0])
    spectrum = np.array([-1.0, np.nextafter(-2.0, -3.0)])
    for condition, certified in ((1.0, True), (10.0, True), (100.0, False)):
        g = GeneratorMatrix(entries, 1.0, "", (spectrum, np.eye(2),
                                               np.array([1.0, condition])))
        assert g.spectral_defect == pytest.approx(EPS, rel=1e-12)
        assert g.certified == certified


def test_norm_bounds_need_an_orthogonal_basis():
    g, _ = twin(1.0, 1.0, 0.4, 0.5, 32)
    assert g.certified and np.max(g.spectrum) < 0.0
    with pytest.raises(ValueError, match="orthogonal"):
        resolvent_bound_check(g, 1.0)
    with pytest.raises(ValueError, match="orthogonal"):
        contraction_check(ConformableSemigroup(g, Order(0.5)), (1.0,))
