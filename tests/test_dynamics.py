"""Spectral-dynamics probes: condition checks, witnesses, return times."""

import numpy as np
import pytest

from confsemi import (Clock, ConformableSemigroup, DriftDiffusionParams, EigenfunctionFamily,
                      GeneratorMatrix, LambdaRectangle, Order,
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
    assert out["holds"]
    assert out["ratio"] == pytest.approx(0.5)
    assert out["lower_margin"] > 0 and out["upper_margin"] > 0


@pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 0.6), (1.0, 2.0, 0.5)])
def test_condition_fails_outside_band(a, b, c):
    out = dsw_condition_check(DriftDiffusionParams(a, b, c, Order(1.0)))
    assert not out["holds"]


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


def test_rectangle_too_few_points_rejected():
    with pytest.raises(ValueError):
        LambdaRectangle(center=0.0, re_half=1.0, im_half=2.0, n_re=2, n_im=2)


# hypotheses probe ----------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_report():
    return dsw_hypotheses_probe(family(), rectangle(), n=256)


def test_probe_eigen_residuals(probe_report):
    assert probe_report.n == 256
    assert len(probe_report.eigen_records) == 9
    assert probe_report.worst_eigen_ratio() <= 1.0
    for rec in probe_report.eigen_records:
        assert rec["residual"] <= rec["bound"]


def test_probe_imag_axis_rows(probe_report):
    assert len(probe_report.imag_axis_records) == 3
    for rec in probe_report.imag_axis_records:
        assert abs(rec["lam"].real) <= 1e-12
        assert rec["ratio"] <= 1.0


def test_probe_analyticity(probe_report):
    assert probe_report.worst_analyticity() <= 1e-8
    shrink = [rec["shrink_change"] for rec in probe_report.analyticity_records]
    assert max(shrink) <= 1e-8


def test_probe_gram_separation(probe_report):
    gram = probe_report.gram
    assert gram["det"] > 1e-10
    assert gram["duplicate_values"] is False
    assert len(gram["lambdas"]) == 4


# clock invariance ------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.8])
def test_clock_invariance(delta):
    g = GeneratorMatrix(np.diag([-1.0, -2.0]), np.ones(2), "diag_decay")
    cs = ConformableSemigroup(g, Clock(Order(delta)))
    residual, params = clock_invariance_check(
        cs, np.array([1.0, -1.0], dtype=complex), (0.3, 0.9, 1.7))
    assert residual <= TOLERANCE_DEFAULTS["invariance"]
    assert residual <= 1e-13
    for item in ("flow_transfer", "displacement_transfer", "norm_sequence"):
        assert params[item] <= 1e-13


# decay witnesses ---------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-1.0, -0.5 + 3.0j])
def test_decay_witness(lam):
    out = x0_probe(family(), lam, np.linspace(0.0, 4.0, 9))
    assert out["monotone_decay"]
    assert out["worst_error"] <= 1e-12


def test_decay_witness_rejects_growth():
    with pytest.raises(ValueError):
        x0_probe(family(), 0.5, np.linspace(0.0, 4.0, 9))


@pytest.mark.parametrize("lam,eps", [(1.0, 1e-3), (2.0, 1e-5)])
def test_landing_witness(lam, eps):
    """a seed of half the budget grows back to unit scale at the logged time."""
    out = xinf_probe(family(), lam, eps)
    assert out["seed_norm"] == pytest.approx(eps / 2.0, rel=1e-12)
    assert out["seed_norm"] < eps
    assert out["t_star"] > 0.0
    assert out["terminal_error"] <= 1e-12


def test_landing_witness_rejects_decay():
    with pytest.raises(ValueError):
        xinf_probe(family(), -1.0, 1e-3)


# periodic return -------------------------------------------------------------------

def test_periodic_return_full_circle():
    out = periodic_orbit_check(family(), 2.0 * np.pi)
    assert out["tau"] == pytest.approx(1.0)
    # order-1/2 return time: (delta * tau)^(1/delta) = 0.25
    assert out["t_return"] == pytest.approx(0.25, rel=1e-12)
    assert out["coefficient_error_full"] <= 1e-9
    assert out["coefficient_error_half"] <= 1e-9
    assert out["return_gap"] <= 1e-9
    assert out["transfer_residual"] <= 1e-12


def test_periodic_return_slow_rotation():
    out = periodic_orbit_check(family(), 1.0, delta=Order(0.5))
    assert max(out["coefficient_error_full"], out["coefficient_error_half"],
               out["return_gap"]) <= 1e-9
    assert out["transfer_residual"] <= 1e-12
    assert out["tau"] == pytest.approx(2.0 * np.pi)
    assert out["t_return"] == pytest.approx((0.5 * 2.0 * np.pi) ** 2, rel=1e-12)
