"""Batched flows and the Laplacian battery on its three diagonals.

A batch of times goes through one call of semigroup._flow as a stack of
states with a vector of times, one per row.  Its dense flows come from one
stacked expm call and are applied state by state, so every state of a
batch carries the bits of a lone evolve_classical call.  The dissipativity
margin and the resolvent products of a tridiagonal generator are read from
its diagonals; here they are held against the dense oracles they replace.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from confsemi import (ConformableSemigroup, DriftDiffusionParams,
                      GeneratorMatrix, GridPair, Order,
                      build_classical_operator, delta_law_residual,
                      dirichlet_second_difference, dissipativity_margin,
                      evolve_classical, resolvent_bound_check)
from confsemi import semigroup as sg
from confsemi.semigroup import _MODE_PROBES, _RESOLVENT_PROBES, _flow
from confsemi.suites import (_cascade3, _diag_complex, _diag_decay,
                             _nilpotent2, _nonnormal4)

EPS = np.finfo(float).eps


def clamped_twin(n):
    """the certified clamped drift-diffusion twin, which flows in its
    eigenbasis"""
    p = DriftDiffusionParams(1.0, 1.0, 0.4, Order(0.5))
    g = build_classical_operator(p, GridPair.build(n, p.delta))
    assert g.certified and g.eigenbasis_flow
    return g


GENERATORS = [_nilpotent2(), _diag_decay(), _diag_complex(), _cascade3(),
              _nonnormal4(), clamped_twin(64)]
# five distinct nonzero times, a repeat and a zero: a repeat reuses its
# flow within the call, a zero copies
TIMES = np.array([0.3, 1e-4, 0.0, 2.0, 0.3, 1.7, 0.05])


def state(g):
    return np.linspace(1.0, -0.5, g.dim) + 0.25j


# batched flows -----------------------------------------------------------------

@pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.label)
def test_batched_flows_equal_lone_flows_bit_for_bit(g):
    x = state(g)
    batch = evolve_classical(g, TIMES, x)
    assert batch.shape == (len(TIMES), g.dim)
    for s, row in zip(TIMES, batch):
        assert np.array_equal(row, evolve_classical(g, float(s), x))


@pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.label)
def test_stacked_steps_equal_lone_steps_bit_for_bit(g):
    """two _flow calls over a stack, one vector of times per call: each row
    ends where two lone evolve_classical calls take its own state"""
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((len(TIMES), g.dim)) + 0.0j
    second = TIMES[::-1].copy()
    last = _flow(g, second, _flow(g, TIMES, stack))
    for row, s1, s2, x in zip(last, TIMES, second, stack):
        want = evolve_classical(g, float(s2), evolve_classical(g, float(s1), x))
        assert np.array_equal(row, want)


def test_a_dense_batch_is_one_stacked_expm_per_step(monkeypatch):
    """the distinct nonzero times of a _flow call go to expm in one call,
    and the certified twin calls no expm"""
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return expm(matrix)

    monkeypatch.setattr(sg, "expm", counting)
    g = _nonnormal4()
    stack = np.ones((len(TIMES), 4), dtype=complex)
    for times in (TIMES, TIMES[::-1], 2.0 * TIMES):
        stack = _flow(g, times, stack)
    assert calls == [(5, 4, 4), (5, 4, 4), (5, 4, 4)]
    calls.clear()
    twin = clamped_twin(64)
    evolve_classical(twin, TIMES, state(twin))
    assert calls == []


def test_semigroup_evolve_takes_a_vector_of_times():
    cs = ConformableSemigroup(_nonnormal4(), Order(0.4))
    ts = np.linspace(0.0, 2.0, 9)
    x = state(cs.generator)
    batch = cs.evolve(ts, x)
    for t, row in zip(ts, batch):
        assert np.array_equal(row, cs.evolve(float(t), x))


def test_negative_batched_time_is_refused():
    with pytest.raises(ValueError):
        evolve_classical(_diag_decay(), np.array([0.5, -0.1]), np.ones(2))


# the batched composition law ---------------------------------------------------

@pytest.mark.parametrize("g", GENERATORS, ids=lambda g: g.label)
@pytest.mark.parametrize("delta", [0.3, 1.0])
def test_batched_law_equals_pair_by_pair(g, delta):
    cs = ConformableSemigroup(g, Order(delta))
    x = state(g)
    r, q = np.random.default_rng(7).uniform(0.0, 2.0, size=(2, 20))
    r[3] = q[5] = 0.0
    batch = delta_law_residual(cs, r, q, x)
    assert batch.shape == (20,)
    for got, a, b in zip(batch, r, q):
        lone = delta_law_residual(cs, float(a), float(b), x)
        assert type(lone) is float
        assert got == lone


def test_law_rejects_a_negative_pair():
    cs = ConformableSemigroup(_diag_decay(), Order(0.5))
    with pytest.raises(ValueError):
        delta_law_residual(cs, np.array([0.5, 1.0]), np.array([0.5, -1.0]),
                           np.ones(2))


# the Laplacian battery on its three diagonals -----------------------------------

BAND_NS = [3, 32, 128, 256, 512]


def dense_margin(g):
    return float(np.max(np.linalg.eigvalsh(
        0.5 * (g.entries + g.entries.conj().T))))


def tolerance(g):
    """both routes are normwise backward stable, the dense Householder one
    with an error that grows with n: 4 sqrt(n) eps ||A||_1 (the gaps
    measured up to 0.1 eps ||A||_1 on the Laplacian and 5.5 eps ||A||_1 on
    the complex band)"""
    return 4.0 * np.sqrt(g.dim) * EPS * np.linalg.norm(g.entries, 1)


@pytest.mark.parametrize("n", BAND_NS)
def test_band_margin_matches_dense_eigvalsh(n):
    g = dirichlet_second_difference(n)
    assert abs(dissipativity_margin(g) - dense_margin(g)) <= tolerance(g)


@pytest.mark.parametrize("n", BAND_NS)
def test_band_margin_of_a_complex_nonnormal_band(n):
    """the Hermitian part averages each off-diagonal pair with a conjugate,
    and its phases do not move the spectrum"""
    rng = np.random.default_rng(n)

    def draw(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    entries = (np.diag(draw(n)) + np.diag(draw(n - 1), 1)
               + np.diag(3.0 * draw(n - 1), -1))
    g = GeneratorMatrix(entries, 1.0, "complex_band")
    assert abs(dissipativity_margin(g) - dense_margin(g)) <= tolerance(g)


def test_a_wider_band_keeps_the_dense_margin():
    entries = dirichlet_second_difference(16).entries.copy()
    entries[0, 2] = entries[2, 0] = 5.0
    g = GeneratorMatrix(entries, 1.0, "pentadiagonal")
    assert dissipativity_margin(g) == dense_margin(g)


def dense_lower_excess(g, lam, seed):
    """the pointwise resolvent excess from the dense (lam I - A) @ probes, on
    the probes resolvent_bound_check draws"""
    probes = np.hstack((
        np.random.default_rng(seed).standard_normal(
            (_RESOLVENT_PROBES, g.dim)).T,
        g.eigvecs[:, np.argsort(g.spectrum)[-_MODE_PROBES:]]))
    image = (lam * np.eye(g.dim) - g.entries) @ probes
    lhs = np.sqrt(np.sum(g.weight * np.abs(image) ** 2, axis=0))
    rhs = lam * np.sqrt(np.sum(g.weight * np.abs(probes) ** 2, axis=0))
    return float(np.max((rhs - lhs) / rhs))


@pytest.mark.parametrize("n", BAND_NS)
@pytest.mark.parametrize("lam", [0.1, 2.0])
def test_band_resolvent_products_match_dense(n, lam):
    g = dirichlet_second_difference(n)
    _, params = resolvent_bound_check(g, lam, seed=5)
    assert params["lower_excess"] == pytest.approx(
        dense_lower_excess(g, lam, 5), rel=1e-12)
