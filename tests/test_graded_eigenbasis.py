"""The clamped graded drift-diffusion operator in its certified eigenbasis,
against the dense oracles and the dense route of an uncertified one."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from confsemi import drift_diffusion as dd
from confsemi import semigroup as sg
from confsemi import (DriftDiffusionParams, GeneratorMatrix, Order,
                      evolve_classical, mild_solution_residuals,
                      taylor_matrix_exp)
from confsemi.semigroup import (_DEFECT_ULPS, _flow,
                                _tridiagonal_eigenpairs)
from conftest import graded_pair

EPS = np.finfo(float).eps
STEPS = np.diff([0.0, 0.25, 0.5, 1.0])


def without_pairs(g):
    """g's entries and weight with no eigenpairs, which flow densely"""
    return GeneratorMatrix(g.entries, g.weight, g.label)


def stepped(g, x):
    """x after each of STEPS in turn, one _flow call per step"""
    states = []
    for step in STEPS:
        x = _flow(g, step, x)
        states.append(x)
    return states


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# agreement with the dense oracles ---------------------------------------------

COEFFS = ((1.0, 1.0, 0.4), (0.5, 3.0, 0.1), (3.0, 0.3, 2.0), (0.2, 0.2, 1.0))
DELTAS = (0.5, 0.6, 0.7, 0.85, 0.95)


@pytest.mark.parametrize("n, deltas, steps", [
    (16, DELTAS, (1e-3, 0.25, 1.0)),
    (64, DELTAS, (1e-3, 0.25, 1.0)),
    # the series oracle at n = 256 costs about 0.25 s a call
    (256, (0.5, 0.85), (0.25,)),
])
def test_certified_flow_matches_expm_and_taylor(n, deltas, steps):
    """over a grid of (a, b, c) and delta in [0.5, 1) every certified
    graded flow is within 1e-10 relative of scipy's expm and of the series
    oracle.  Only the drift-dominated cell b / a = 6 has a similarity
    condition of 17 to 430 and is uncertified at the smaller orders; it
    flows densely, as without pairs"""
    certified = 0
    for (a, b, c), delta in itertools.product(COEFFS, deltas):
        g, _, block, _ = graded_pair(
            DriftDiffusionParams(a, b, c, Order(delta)), n)
        condition = float(np.max(g.similarity) / np.min(g.similarity))
        assert g.certified == (condition * g.spectral_defect
                               <= _DEFECT_ULPS * EPS * (n + 1))
        if not g.certified:
            assert b / a > 1.0 and condition > 16.0
            for got, want in zip(stepped(g, block),
                                 stepped(without_pairs(g), block)):
                assert np.array_equal(got, want)
            continue
        certified += 1
        x = block.astype(complex)
        for s in steps:
            got = evolve_classical(g, s, x)
            assert rel_gap(got, expm(s * g.entries) @ x) <= 1e-10
            assert rel_gap(got, taylor_matrix_exp(s * g.entries) @ x) <= 1e-10
    assert certified >= (len(COEFFS) - 1) * len(deltas)


def test_eigenpairs_reproduce_the_entries():
    """D V diag(lam) V^T D^-1 rebuilds the graded operator entry by entry,
    and V is orthonormal"""
    matrix = graded_pair(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.7)), 48)[0].entries
    spectrum, vecs, scale = _tridiagonal_eigenpairs(matrix)
    assert scale[0] == 1.0
    rebuilt = scale[:, None] * ((vecs * spectrum) @ vecs.T) / scale
    assert np.max(np.abs(rebuilt - matrix)) <= 64.0 * EPS * np.max(
        np.abs(matrix))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(48))) <= 64.0 * EPS


def test_mild_errors_match_the_dense_route():
    """with its pairs mild_bound calls no expm, and every error is that of
    the dense route within 1e-10 relative; the dense route makes one
    exponential per step, with no cache across steps"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.7))
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return expm(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "expm", counting)
        fast = mild_solution_residuals(p, 128, (0.25, 0.5, 1.0))
        assert calls == []
        mp.setattr(dd, "_tridiagonal_eigenpairs", lambda entries: None)
        dense = mild_solution_residuals(p, 128, (0.25, 0.5, 1.0))
        assert len(calls) == 3     # one exponential per step
    assert fast["stencil_residual"] == dense["stencil_residual"]
    for got, want in zip(fast["records"], dense["records"]):
        assert got["bound"] == want["bound"]
        assert got["error"] == pytest.approx(want["error"], rel=1e-10)


def eigenbasis_oracle(g, s, x):
    """d V (exp(s lam) V^T (x / d)) for a real block x, written out"""
    d = g.similarity[:, None]
    return d * (g.eigvecs @ (np.exp(s * g.spectrum)[:, None]
                             * (g.eigvecs.T @ (x / d))))


def dense_oracle(g, s, x):
    return sg.expm(s * g.entries) @ x


@pytest.mark.parametrize("route", ["eigenbasis", "dense"])
def test_zero_and_repeated_steps_match_lone_oracle_flows(route):
    """at t = 0, 0.25, 0.25, 1 every mild_bound error is, bit for bit, that
    of a plain loop of lone oracle flows, the twin in its eigenbasis and
    the graded operator in its eigenbasis or, with no pairs, by expm of
    each step; a zero step leaves both states as they are, so the t = 0
    error is exactly 0 and the repeated time repeats its error"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
    with pytest.MonkeyPatch.context() as mp:
        if route == "dense":
            mp.setattr(dd, "_tridiagonal_eigenpairs", lambda entries: None)
        out = mild_solution_residuals(p, 64, (0.0, 0.25, 0.25, 1.0))
        g, twin, block, rows = graded_pair(p, 64)
    assert twin.certified and g.certified == (route == "eigenbasis")
    graded_flow = eigenbasis_oracle if route == "eigenbasis" else dense_oracle
    graded, classical, want = block, block, []
    for step in (0.0, 0.25, 0.0, 0.75):
        if step:
            graded = graded_flow(g, step, graded)
            classical = eigenbasis_oracle(twin, step, classical)
        want.append(float(np.max(np.abs((graded - classical)[rows]))))
    errors = [rec["error"] for rec in out["records"]]
    assert errors == want
    assert errors[0] == 0.0 and errors[1] == errors[2] > 0.0


# operators without pairs, and the certification gate ---------------------------

@pytest.mark.parametrize("delta, rows", [(0.3, 1), (0.1, 7), (0.05, 16),
                                         (0.02, 48)])
def test_non_positive_products_give_no_pairs(delta, rows):
    """at the default coefficients a product A[j, j+1] A[j+1, j] <= 0 sits
    in the first row at delta = 0.3 and in 7 or more below 0.1; no diagonal
    similarity symmetrizes such an operator"""
    g = graded_pair(DriftDiffusionParams(1.0, 1.0, 0.4, Order(delta)), 256)[0]
    products = np.diagonal(g.entries, 1) * np.diagonal(g.entries, -1)
    assert np.sum(products <= 0.0) == rows
    assert g.spectrum is None and not g.eigenbasis_flow


def test_underflowing_similarity_gives_no_pairs():
    """products are positive but d_j = 1e-200**j underflows"""
    entries = (np.diag([-2.0, -2.0, -2.0]) + np.diag([1e200, 1e200], 1)
               + np.diag([1e-200, 1e-200], -1))
    assert _tridiagonal_eigenpairs(entries) is None


@pytest.mark.parametrize("n", [32, 128])
def test_perturbed_entry_fails_certification_and_flows_densely(n):
    """one entry moved by 1e-6 relative voids the pairs: the flow is the
    dense one, bit for bit that of the same entries without pairs, and so
    is mild_bound's"""
    g, _, block, _ = graded_pair(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5)), n)
    assert g.certified
    moved = g.entries.copy()
    moved[3, 4] *= 1.0 + 1e-6
    bad = GeneratorMatrix(moved, g.weight, eigenpairs=(
        g.spectrum, g.eigvecs, g.similarity), eigenbasis_flow=True)
    assert not bad.certified and bad.spectral_defect > 1e3 * EPS * (n + 1)
    want = stepped(without_pairs(bad), block)
    for got, dense in zip(stepped(bad, block), want, strict=True):
        assert np.array_equal(got, dense)
    assert np.array_equal(want[0], sg.expm(0.25 * moved) @ block)

    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))

    def run(pairs_of):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dd, "_tridiagonal_eigenpairs", pairs_of)
            return mild_solution_residuals(p, n, (0.25, 0.5, 1.0))

    def stale(entries):
        """pairs of the entries with one of them moved by 1e-6 relative"""
        entries = entries.copy()
        entries[3, 4] *= 1.0 + 1e-6
        return _tridiagonal_eigenpairs(entries)

    assert run(stale) == run(lambda entries: None)


def test_order_one_errors_are_exactly_zero():
    """at delta = 1 the graded operator is the twin bit for bit and shares
    its flow"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0))
    for n in (64, 128):
        out = mild_solution_residuals(p, n, (0.25, 0.5, 1.0))
        assert [rec["error"] for rec in out["records"]] == [0.0, 0.0, 0.0]


# overflow ---------------------------------------------------------------------

def counted_mild(p, n):
    """mild_solution_residuals at t = 0.25, 0.5, 1 and the shapes of the
    expm calls it made, with every warning an error"""
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return expm(matrix)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(sg, "expm", counting)
        return mild_solution_residuals(p, n, (0.25, 0.5, 1.0)), calls


@pytest.mark.parametrize("n", [128, 256])
def test_overflowing_eigenbasis_flow_ends_in_inf_without_expm(n):
    """at delta = 0.4 the graded operator is certified but grows like
    exp(388 t) at n = 64 and faster beyond; where its eigenbasis flow
    leaves double range, mild_bound's errors are inf from that step on,
    with no expm and no warning, and the same steps are inf, again with no
    warning, on the dense route of the same entries without pairs"""
    g, _, block, _ = graded_pair(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.4)), n)
    assert g.certified and np.max(g.spectrum) > 1e3
    with pytest.raises(FloatingPointError):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in STEPS:
                block = evolve_classical(g, step, block)
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.4))
    fast, calls = counted_mild(p, n)
    assert calls == []
    errors = np.array([rec["error"] for rec in fast["records"]])
    assert np.isinf(errors[-1]) and not np.any(np.isnan(errors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "_tridiagonal_eigenpairs", lambda entries: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense = mild_solution_residuals(p, n, (0.25, 0.5, 1.0))
    want = np.array([rec["error"] for rec in dense["records"]])
    np.testing.assert_array_equal(np.isinf(errors), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(errors[finite], want[finite], rtol=1e-10)


def test_overflowing_twin_ends_in_non_finite_errors():
    """at c = 1e6 the twin's exp(s lam) leaves double range at the first
    step: mild_bound's errors are all inf, not a raise, with no expm and
    no warning"""
    out, calls = counted_mild(DriftDiffusionParams(1.0, 1.0, 1e6, Order(0.5)),
                              64)
    assert calls == []
    assert all(np.isinf(rec["error"]) for rec in out["records"])


def test_out_of_range_operator_ends_in_inf_errors_without_a_flow():
    """at delta = 0.02 and n = 2048 the graded weights leave double range:
    the graded GeneratorMatrix refuses them before either flow starts, so
    the stencil residual is nan and every error inf, with no expm (the twin
    would flow densely here) and no warning"""
    out, calls = counted_mild(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.02)), 2048)
    assert calls == []
    assert np.isnan(out["stencil_residual"])
    assert all(np.isinf(rec["error"]) for rec in out["records"])


def test_overflowing_product_raises_without_nan():
    """exp(s lam) is finite but the state times it is not: the eigenbasis
    route raises FloatingPointError and warns of nothing"""
    g, _, block, _ = graded_pair(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.4)), 64)
    assert 300.0 < np.max(g.spectrum) < 400.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(evolve_classical(g, 1.0, block)))
        with pytest.raises(FloatingPointError, match="overflow"):
            evolve_classical(g, 1.0, 1e200 * block)
