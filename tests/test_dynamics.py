"""Spectral-dynamics probes: condition checks, witnesses, return times."""

import cmath
import math

import numpy as np
import pytest

from confsemi import dynamics as dy
from confsemi import (ConformableSemigroup, DriftDiffusionParams, EigenfunctionFamily,
                      GeneratorMatrix, GridPair, LambdaRectangle, Order,
                      clock_invariance_check, dsw_condition_check,
                      dsw_hypotheses_probe, periodic_orbit_check, x0_probe,
                      xinf_probe)
from confsemi.config import TOLERANCE_DEFAULTS


def family():
    return EigenfunctionFamily.from_params(
        DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))


def rectangle():
    return LambdaRectangle(center=0.0, re_half=2.0, im_half=12.0)


# coefficient condition ---------------------------------------------------------

def test_condition_holds_inside_band():
    out = dsw_condition_check(DriftDiffusionParams(1.0, 1.0, 0.4, Order(1.0)))
    assert out["status"] == "condition_met"
    assert (out["a"], out["b"], out["c"]) == (1.0, 1.0, 0.4)
    assert out["ratio"] == pytest.approx(0.5)
    assert out["lower_margin"] > 0 and out["upper_margin"] > 0


@pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 0.6), (1.0, 2.0, 0.5)])
def test_condition_fails_outside_band(a, b, c):
    out = dsw_condition_check(DriftDiffusionParams(a, b, c, Order(1.0)))
    assert out["status"] == "condition_not_met"


# probe geometry -----------------------------------------------------------------

def test_rectangle_sampling():
    rect = rectangle()
    pts = rect.samples()
    assert len(pts) == 9
    assert len(rect.corners()) == 4
    # the middle column must touch the imaginary axis
    assert any(abs(p.real) <= 1e-12 for p in pts)


def test_rectangle_off_axis_rejected():
    with pytest.raises(ValueError):
        LambdaRectangle(center=5.0, re_half=1.0, im_half=2.0)


# hypotheses probe ----------------------------------------------------------------

@pytest.fixture(scope="module")
def probe():
    return dsw_hypotheses_probe(family(), rectangle(), n=256)


def test_probe_eigen_residuals(probe):
    residual, params = probe["eigen_residual"]
    assert params == {"points": 9, "worst_ratio": residual}
    assert residual <= 1.0


def test_probe_imag_axis_rows(probe):
    # the rectangle's middle column: exactly 3 samples on the imaginary axis
    assert sum(abs(lam.real) <= 1e-12 for lam in rectangle().samples()) == 3
    residual, params = probe["eigen_residual_imag_axis"]
    assert params == {"points": 3}
    assert residual <= 1.0


def test_probe_analyticity(probe):
    residual, params = probe["analyticity"]
    assert params == {"radius": 0.1}
    assert residual <= 1e-8
    shrink, params = probe["analyticity_shrink"]
    assert params == {"radii": [0.1, 0.05]}
    assert shrink <= 1e-8


def test_probe_evaluates_each_contour_once(monkeypatch):
    """each (sample, radius) circle is one block of 16 eigenfunctions that
    all three functionals read: 9 samples x (1 + 2 x 16) evaluations, plus
    the 9 sup|phi''''| grids and the 4 corners (913 with one circle per
    functional)"""
    calls = []
    evaluate = EigenfunctionFamily.evaluate

    def counting(self, lam, xi, k=0):
        calls.append(lam)
        return evaluate(self, lam, xi, k)

    monkeypatch.setattr(EigenfunctionFamily, "evaluate", counting)
    dsw_hypotheses_probe(family(), rectangle(), n=256)
    assert len(calls) == 9 * (1 + 2 * 16) + 9 + 4


def loop_contour_defects(fam, rect, n, radius):
    """the analyticity measures one functional and one contour point at a
    time, the reference for the probe's block products"""
    grid = GridPair.build(n, Order(1.0))
    xi, h = grid.xi_nodes, grid.h

    def mean(test_vals, center, r):
        return sum(h * np.sum(test_vals * fam.evaluate(
            center + r * cmath.exp(2j * math.pi * k / 16), xi))
            for k in range(16)) / 16

    defects, shrinks = [], []
    for func in dy._FUNCTIONALS:
        test_vals = func(xi)
        for lam in rect.samples():
            center = complex(h * np.sum(test_vals * fam.evaluate(lam, xi)))
            full, half = mean(test_vals, lam, radius), mean(test_vals, lam,
                                                            radius / 2.0)
            scale = max(abs(center), 1e-12)
            defects.append(abs(full - center) / scale)
            shrinks.append(abs(full - half) / scale)
    return max(defects), max(shrinks)


def test_probe_contour_means_match_the_loop(monkeypatch):
    """at radius 100 the 16-point trapezoid rule is off by about 3.5e-7, far
    above rounding, and the block products read the loop's defects within
    1e-6 relative (measured 2.8e-9: the summation order moves the O(1)
    means by a few eps)"""
    monkeypatch.setattr(dy, "_CONTOUR_RADIUS", 100.0)
    out = dsw_hypotheses_probe(family(), rectangle(), n=64)
    defect, shrink = loop_contour_defects(family(), rectangle(), 64, 100.0)
    assert defect > 1e-7
    assert out["analyticity"][0] == pytest.approx(defect, rel=1e-6)
    assert out["analyticity_shrink"][0] == pytest.approx(shrink, rel=1e-6)


def test_probe_gram_separation(probe):
    gram = probe["gram"]
    assert gram["det"] > 1e-10
    assert gram["duplicate_values"] is False
    assert len(rectangle().corners()) == 4


# clock invariance ------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_clock_invariance(delta):
    g = GeneratorMatrix(np.diag([-1.0, -2.0]), 1.0, "diag_decay")
    cs = ConformableSemigroup(g, Order(delta))
    residual, params = clock_invariance_check(
        cs, np.array([1.0, -1.0], dtype=complex), (0.3, 0.9, 1.7))
    assert residual <= TOLERANCE_DEFAULTS["invariance"]
    assert residual <= 1e-13
    for item in ("flow_transfer", "displacement_transfer", "norm_sequence"):
        assert params[item] <= 1e-13


@pytest.mark.parametrize("omega", [2.0 * np.pi, 1.0])
def test_clock_invariance_on_the_rotation_pair(omega):
    """the transfer term of the periodic witness, at its order 1/2 and its
    period tau = 2 pi / omega"""
    g = GeneratorMatrix(np.diag([1j * omega, -1j * omega]), 1.0)
    cs = ConformableSemigroup(g, Order(0.5))
    residual, _ = clock_invariance_check(
        cs, np.array([1.0, 1.0], dtype=complex), [2.0 * np.pi / omega])
    assert residual <= 1e-12


# decay witnesses ---------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-1.0, -0.5 + 3.0j])
def test_decay_witness(lam):
    residual, params = x0_probe(lam, np.linspace(0.0, 4.0, 9))
    assert params == {"lam": lam, "monotone": True}
    assert residual <= 1e-12


def test_decay_witness_rejects_growth():
    with pytest.raises(ValueError):
        x0_probe(0.5, np.linspace(0.0, 4.0, 9))


@pytest.mark.parametrize("lam,eps", [(1.0, 1e-3), (2.0, 1e-5)])
def test_landing_witness(lam, eps):
    """a seed of half the budget grows back to unit scale at the logged time."""
    residual, params = xinf_probe(family(), lam, eps)
    assert params["seed_norm"] == pytest.approx(eps / 2.0, rel=1e-12)
    assert params["seed_norm"] < eps
    assert params["t_star"] > 0.0
    assert residual <= 1e-12


def test_landing_witness_rejects_decay():
    with pytest.raises(ValueError):
        xinf_probe(family(), -1.0, 1e-3)


# periodic return -------------------------------------------------------------------

def test_periodic_return_full_circle():
    residual, params = periodic_orbit_check(2.0 * np.pi)
    assert params["omega"] == 2.0 * np.pi
    assert params["tau"] == pytest.approx(1.0)
    # order-1/2 return time: (delta * tau)^(1/delta) = 0.25
    assert params["t_return"] == pytest.approx(0.25, rel=1e-12)
    assert residual <= 1e-9


def test_periodic_return_slow_rotation():
    residual, params = periodic_orbit_check(1.0)
    assert residual <= 1e-9
    assert params["tau"] == pytest.approx(2.0 * np.pi)
    assert params["t_return"] == pytest.approx((0.5 * 2.0 * np.pi) ** 2,
                                               rel=1e-12)


def test_periodic_return_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        periodic_orbit_check(0.0)
