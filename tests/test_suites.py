"""The check runner: suite composition, record stamping, and pairing gate."""

from dataclasses import replace

import pytest

from confsemi import default_config, run_suite
from confsemi import suites
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
                            "margin"}
    # the heuristic probe records, never gates
    for cid in ("weight_window_probe[exp_decay][alpha=0.5]",
                "weight_window_probe[unit][alpha=0.5]"):
        assert by_id[cid].residual == 0.0
    gram = by_id["dynamics.gram_separation"]
    assert gram.params["threshold"] == SMALL.tol("gram_min")
    assert gram.residual == SMALL.tol("gram_min") / gram.params["det"]


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
    def scaled(grid, delta):
        forward, inverse = discrete_unitary(grid, delta)
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
