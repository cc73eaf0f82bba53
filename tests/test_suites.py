"""The check runner: suite composition, record stamping, and pairing gate."""

import math
from dataclasses import replace

import pytest

from confsemi import CheckReport, default_config, run_suite
from confsemi import drift_diffusion, suites
from confsemi.config import SUITE_NAMES
from confsemi.drift_diffusion import discrete_unitary

SMALL = replace(default_config(), seed=7, delta_list=(0.5, 1.0),
                n_list=(32, 64), n_resolvent=32, n_eigen=64)
SUITES = [name for name in SUITE_NAMES if name != "all"]


@pytest.fixture(scope="module")
def all_reports():
    return run_suite(SMALL)


def test_all_is_the_suites_in_order(all_reports):
    parts = [rep for name in SUITES
             for rep in run_suite(replace(SMALL, suite=name))]

    def key(rep):
        return rep.check_id, rep.residual, rep.tolerance

    assert [key(r) for r in all_reports] == [key(r) for r in parts]


def test_check_ids_unique(all_reports):
    ids = [rep.check_id for rep in all_reports]
    assert len(ids) == len(set(ids))


def test_runner_stamps_seed_and_wall_time(all_reports):
    assert all(rep.seed == SMALL.seed for rep in all_reports)
    assert all(rep.wall_time >= 0.0 for rep in all_reports)


def test_suite_mapping_is_suite_names():
    assert list(suites._SUITES) == SUITES


def test_library_check_records(all_reports):
    """Library checks return measurements; the suites compose their ids
    and take their tolerances from the config."""
    by_id = {rep.check_id: rep for rep in all_reports}
    resolvent = SMALL.tol("resolvent_slack")
    contraction = SMALL.tol("contraction_slack")
    invariance = SMALL.tol("invariance")
    expected = {
        "resolvent_bound[dirichlet_laplacian[n=32]][lam=0.1]": resolvent,
        "resolvent_bound[dirichlet_laplacian[n=32]][lam=0.5]": resolvent,
        "resolvent_bound[dirichlet_laplacian[n=32]][lam=1.0]": resolvent,
        "resolvent_bound[dirichlet_laplacian[n=32]][lam=2.0]": resolvent,
        "contraction[dirichlet_laplacian[n=32]][delta=0.5]": contraction,
        "contraction[dirichlet_laplacian[n=32]][delta=1.0]": contraction,
        "clock_invariance[diag_decay][delta=0.4]": invariance,
        "clock_invariance[diag_decay][delta=0.8]": invariance,
        "weight_window_probe[exp_decay][alpha=0.5]": 0.0,
        "weight_window_probe[unit][alpha=0.5]": 0.0,
    }
    assert {cid: by_id[cid].tolerance for cid in expected} == expected
    assert all(by_id[cid].passed for cid in expected)
    assert set(by_id["resolvent_bound[dirichlet_laplacian[n=32]][lam=0.1]"]
               .params) == {"lambda", "n", "norm_excess", "lower_excess",
                            "margin", "spectral_defect"}
    # the heuristic probe records, never gates
    for cid in ("weight_window_probe[exp_decay][alpha=0.5]",
                "weight_window_probe[unit][alpha=0.5]"):
        assert by_id[cid].residual == 0.0
    gram = by_id["dynamics.gram_separation"]
    assert gram.params["threshold"] == SMALL.tol("gram_min")
    assert gram.residual == SMALL.tol("gram_min") / gram.params["det"]


# drift_diffusion.conjugacy_order ---------------------------------------------

def conjugacy_orders(cfg):
    """{delta: report} of the conjugacy-order checks, without the later
    checks of the suite."""
    out = {}
    for item in suites.suite_drift_diffusion(cfg):
        if item[0].startswith("drift_diffusion.conjugacy_order"):
            out[item[1]["delta"]] = CheckReport.from_residual(*item, 0.0, 0)
        elif out:
            return out
    raise AssertionError("suite has no conjugacy_order check")


def test_conjugacy_order_fails_a_wrong_graded_operator(monkeypatch):
    """0.3 times the (1 - delta) x^(1 - 2 delta) D1 term added at delta < 1
    stops the conjugacy converging: its orders turn negative, and a negative
    order must FAIL rather than give a negative residual"""
    assemble = drift_diffusion._assemble_conformable

    def mutant(a, b, c, delta, x):
        w = assemble(a, b, c, delta, x)
        if delta < 1.0:
            w1, _ = drift_diffusion._difference_stencils(x)
            w = w + 0.3 * a * ((1.0 - delta) * x ** (1.0 - 2.0 * delta)) * w1
        return w

    cfg = replace(default_config(), delta_list=(0.5, 0.7))
    assert all(rep.passed for rep in conjugacy_orders(cfg).values())
    monkeypatch.setattr(drift_diffusion, "_assemble_conformable", mutant)
    reports = conjugacy_orders(cfg)
    for delta in (0.5, 0.7):
        assert min(reports[delta].params["orders"]) < 0.0
        assert reports[delta].residual == math.inf
        assert not reports[delta].passed


def test_conjugacy_order_fails_out_of_double_range():
    """at delta = 0.02 and n = 2048 the graded weights overflow: the order
    record FAILs with a null residual of kind inf, without a traceback"""
    cfg = replace(SMALL, delta_list=(0.02,), n_list=(1024, 2048))
    report = conjugacy_orders(cfg)[0.02]
    assert math.isnan(report.params["residuals"][1])
    assert not report.passed
    record = report.json_dict()
    assert record["residual"] is None
    assert record["params"]["residual_kind"] == "inf"


@pytest.mark.parametrize("finer, residual", [
    (0.0, 0.0),             # exact finer residual: order +inf
    (1.0, math.inf),        # no decrease: order 0
    (math.nan, math.inf),   # NaN order
])
def test_conjugacy_order_gate_at_the_edges(monkeypatch, finer, residual):
    monkeypatch.setattr(suites, "conjugacy_residual",
                        lambda p, n_list: [(n_list[0], 1.0), (n_list[1], finer)])
    cfg = replace(SMALL, delta_list=(0.5,))
    assert conjugacy_orders(cfg)[0.5].residual == residual


# drift_diffusion.unitary_pairing ---------------------------------------------

@pytest.fixture
def pairing_only(monkeypatch):
    """The conjugacy study runs before the pairing check in its suite and is
    tested on its own; a stand-in with second-order residuals keeps the
    300-seed sweep below fast."""
    monkeypatch.setattr(suites, "conjugacy_residual",
                        lambda p, n_list: [(n, n ** -2.0) for n in n_list])


def unitary_pairing(seed):
    """(residual, tolerance) of the pairing check, without the later checks."""
    for check_id, _, residual, tolerance in suites.suite_drift_diffusion(
            replace(default_config(), seed=seed)):
        if check_id == "drift_diffusion.unitary_pairing":
            return residual, tolerance
    raise AssertionError("suite has no unitary_pairing check")


def test_unitary_pairing_passes_on_seeds_0_to_299(pairing_only):
    failing = []
    for seed in range(300):
        residual, tolerance = unitary_pairing(seed)
        if not residual <= tolerance:
            failing.append((seed, residual))
    assert failing == []


def test_unitary_pairing_catches_a_scaled_forward_map(pairing_only, monkeypatch):
    def scaled(grid):
        forward, inverse = discrete_unitary(grid)
        return forward * (1.0 + 1e-12), inverse

    monkeypatch.setattr(suites, "discrete_unitary", scaled)
    for seed in range(5):
        residual, tolerance = unitary_pairing(seed)
        assert residual > tolerance


def test_clock_roundtrip_at_the_order_floor():
    """the s-grid starts where psi_inv is a normal float, so the smallest
    accepted order measures the clock rather than underflow"""
    cfg = replace(SMALL, suite="clock", delta_list=(0.02,))
    (rep,) = [r for r in run_suite(cfg)
              if r.check_id == "clock.roundtrip[delta=0.02]"]
    assert rep.passed
    assert rep.residual <= cfg.tol("clock_roundtrip")


def test_sweep_rows_follow_the_sweep_columns():
    rows = suites.run_sweep(replace(SMALL, sweep_delta_list=(1.0,),
                                    sweep_n_list=(16,)))
    assert [tuple(row) for row in rows] == [suites.SWEEP_COLUMNS]
