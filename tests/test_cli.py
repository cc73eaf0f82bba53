"""Config parsing, the command-line front end, and its exit contract."""

import csv
import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from confsemi import ConfigError, default_config, parse_config
from confsemi.cli import main
from confsemi.config import (COEFFICIENT_RANGE, ORDER_FLOOR, SUITE_NAMES,
                             TOLERANCE_DEFAULTS, RunConfig)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# parsing -------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.suite == "all"
    assert cfg.seed == 0
    assert set(cfg.tolerances) == set(TOLERANCE_DEFAULTS)


def test_parse_minimal_file(tmp_path):
    cfg = parse_config(write(tmp_path, "[run]\nsuite = clock\nseed = 3\n"))
    assert cfg.suite == "clock"
    assert cfg.seed == 3
    assert cfg.delta_list == default_config().delta_list


def test_parse_full_sections(tmp_path):
    text = """
[run]
suite = transport
seed = 9
out = elsewhere

[orders]
delta_list = 0.4, 0.9

[transport]
alpha = 0.3
weight = gaussian

[grids]
n_list = 32, 64
n_resolvent = 64
n_eigen = 128

[tolerances]
isometry = 1e-9
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.suite == "transport"
    assert cfg.out_dir == "elsewhere"
    assert cfg.delta_list == (0.4, 0.9)
    assert cfg.transport_alpha == 0.3
    assert cfg.transport_weight == "gaussian"
    assert cfg.n_list == (32, 64)
    assert cfg.tol("isometry") == 1e-9
    # untouched tolerances keep their defaults
    assert cfg.tol("law") == TOLERANCE_DEFAULTS["law"]


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=re.escape(
            "unknown section [extra]; known sections: drift_diffusion, "
            "grids, orders, run, sweep, tolerances, transport")):
        parse_config(write(tmp_path, "[run]\nsuite = clock\n\n[extra]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key 'turbo' in [run]; known keys: out, seed, suite")):
        parse_config(write(tmp_path, "[run]\nsuite = clock\nturbo = yes\n"))


def test_unknown_tolerance_rejected(tmp_path):
    known = ", ".join(sorted(TOLERANCE_DEFAULTS))
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown key 'mystery' in [tolerances]; known keys: {known}")):
        parse_config(write(tmp_path, "[tolerances]\nmystery = 1e-3\n"))


@pytest.mark.parametrize("text, message", [
    ("[run]\nseed = sometimes\n", "[run] seed: cannot parse 'sometimes' as int"),
    ("[orders]\ndelta_list = 0.4, x\n",
     "[orders] delta_list: cannot parse '0.4, x' as float_list"),
    ("[grids]\nn_list = 64, 3.5\n",
     "[grids] n_list: cannot parse '64, 3.5' as int_list"),
    ("[drift_diffusion]\nb = fast\n",
     "[drift_diffusion] b: cannot parse 'fast' as float"),
    ("[tolerances]\nlaw = tight\n",
     "[tolerances] law: cannot parse 'tight' as float"),
])
def test_unparsable_values_name_their_type(tmp_path, text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, text))
    assert str(info.value) == message


# every key a configuration file may set outside [tolerances], with the
# default the README documents
CONFIG_KEYS = {
    ("run", "suite"): "all", ("run", "seed"): 0, ("run", "out"): "runs",
    ("orders", "delta_list"): (0.3, 0.5, 0.7, 1.0),
    ("drift_diffusion", "a"): 1.0, ("drift_diffusion", "b"): 1.0,
    ("drift_diffusion", "c"): 0.4, ("drift_diffusion", "delta"): 0.5,
    ("transport", "alpha"): 0.5, ("transport", "weight"): "exp_decay",
    ("grids", "n_list"): (64, 128, 256), ("grids", "n_resolvent"): 128,
    ("grids", "n_eigen"): 256,
    ("sweep", "delta_list"): (0.4, 0.7, 1.0), ("sweep", "n_list"): (32, 64),
}


def ini_text(cfg):
    """cfg written out as a configuration file that sets every key."""
    sections = {}
    for f in fields(RunConfig):
        if "ini" in f.metadata:
            section, key = f.metadata["ini"]
            value = getattr(cfg, f.name)
            if isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            sections.setdefault(section, []).append(f"{key} = {value}")
    sections["tolerances"] = [f"{k} = {v!r}" for k, v in cfg.tolerances.items()]
    return "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                   for section, lines in sections.items())


def test_config_keys_are_the_run_config_fields():
    keys = {f.metadata["ini"]: f.default for f in fields(RunConfig)
            if "ini" in f.metadata}
    assert keys == CONFIG_KEYS
    assert default_config() == RunConfig()


@pytest.mark.parametrize("cfg", [
    default_config(),
    replace(default_config(), suite="transport", seed=9, out_dir="elsewhere",
            delta_list=(0.25, 0.9), dd_a=2.0, dd_b=0.5, dd_c=1.5,
            dd_delta=0.75, transport_alpha=0.3, transport_weight="gaussian",
            n_list=(32, 48), n_resolvent=64, n_eigen=100,
            tolerances=dict(TOLERANCE_DEFAULTS, law=3e-9),
            sweep_delta_list=(1.0, 0.6), sweep_n_list=(16, 48)),
], ids=["defaults", "every-key-moved"])
def test_every_key_round_trips(tmp_path, cfg):
    text = ini_text(cfg)
    assert text.count(" = ") == len(CONFIG_KEYS) + len(TOLERANCE_DEFAULTS)
    assert parse_config(write(tmp_path, text)) == cfg


def test_shipped_default_config_is_the_default():
    assert parse_config(str(CONFIGS / "default.ini")) == default_config()


def test_shipped_sweep_config_sets_only_the_sweep_lists():
    cfg = parse_config(str(CONFIGS / "sweep.ini"))
    assert (cfg.sweep_delta_list, cfg.sweep_n_list) == ((0.4, 0.7, 1.0), (32, 64))
    assert cfg == replace(default_config(), sweep_delta_list=cfg.sweep_delta_list,
                          sweep_n_list=cfg.sweep_n_list)


@pytest.mark.parametrize("text", [
    "[run]\nsuite = warp\n",
    "[transport]\nweight = sawtooth\n",
    "[orders]\ndelta_list = 0.4, 1.7\n",
    "[grids]\nn_list = 8\n",
    "[grids]\nn_list = 16\n",
    "[tolerances]\nlaw = -1e-3\n",
    "[run]\nseed = sometimes\n",
    "[tolerances]\nlaw = nan\n",
    "[tolerances]\nlaw = inf\n",
    "[run]\nseed = -3\n",
    "[drift_diffusion]\na = -1\n",
    "[drift_diffusion]\na = nan\n",
    "[drift_diffusion]\nb = inf\n",
    "[drift_diffusion]\nc = 0\n",
    "[drift_diffusion]\na = 1e-5\n",
    "[drift_diffusion]\nb = 1e80\n",
    "[orders]\ndelta_list = 0.5, 0.5\n",
    "[grids]\nn_list = 64, 64\n",
    "[sweep]\ndelta_list = 0.4, 0.4\n",
    "[sweep]\nn_list = 32, 32\n",
])
def test_invalid_values_rejected(tmp_path, text):
    # the conjugacy order compares successive grid sizes
    why = {"[grids]\nn_list = 16\n": "at least two grid sizes"}.get(text)
    with pytest.raises(ConfigError, match=why):
        parse_config(write(tmp_path, text))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.ini"))


def test_suite_names_cover_cli_choices():
    assert "all" in SUITE_NAMES
    assert len(SUITE_NAMES) == 8


# command line ----------------------------------------------------------------

def test_overrides(tmp_path, capsys):
    """--out and --seed set over the file's [run] out and seed, for run and
    for sweep; without them the file's values hold"""
    from_file = tmp_path / "from_file"
    cfg = write(tmp_path, f"[run]\nsuite = clock\nseed = 3\nout = {from_file}\n"
                          "[sweep]\ndelta_list = 1.0\nn_list = 16\n")
    out = tmp_path / "other"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    assert "(suite=clock, seed=5)" in capsys.readouterr().out
    assert (out / "report.json").exists() and not from_file.exists()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists() and not from_file.exists()
    assert main(["run", "--config", cfg]) == 0
    assert "(suite=clock, seed=3)" in capsys.readouterr().out
    assert (from_file / "report.json").exists()


@pytest.mark.parametrize("text", ["[sweep]\ndelta_list =\n",
                                  "[sweep]\nn_list = ,\n"])
def test_empty_sweep_list_exits_two(tmp_path, capsys, text):
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError, match="must be nonempty"):
        parse_config(cfg)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def run_cli(tmp_path, suite="clock", seed="0", tag="a"):
    cfg = write(tmp_path, "[run]\nsuite = all\n", name=f"cfg_{tag}.ini")
    out = tmp_path / f"out_{tag}"
    code = main(["run", "--suite", suite, "--config", cfg,
                 "--out", str(out), "--seed", seed])
    return code, out


def test_run_writes_reports(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    assert code == 0
    data = json.loads((out / "report.json").read_text())
    assert data and all(r["passed"] for r in data)
    assert "wall_time" not in data[0]
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("[PASS]")) == len(data)
    assert any("0 failed" in l for l in lines)


def test_summary_csv_schema(tmp_path):
    code, out = run_cli(tmp_path, tag="csv")
    assert code == 0
    with (out / "summary.csv").open() as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[0] == "check_id"
    assert header[-3:] == ["residual", "tolerance", "passed"]
    assert all(len(r) == len(header) for r in body)
    assert all(r[-1] == "true" for r in body)


def test_run_seed_determinism(tmp_path):
    _, out_a = run_cli(tmp_path, seed="4", tag="d1")
    _, out_b = run_cli(tmp_path, seed="4", tag="d2")
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()


def test_failing_tolerance_exits_one(tmp_path, capsys):
    # an unreachable tolerance must surface as a failing run, exit code 1
    cfg = write(tmp_path, "[run]\nsuite = clock\n\n[tolerances]\n"
                          "clock_additivity = 1e-30\n", name="failing.ini")
    code = main(["run", "--suite", "clock", "--config", cfg,
                 "--out", str(tmp_path / "f")])
    assert code == 1
    assert "failed" in capsys.readouterr().out


def test_unknown_key_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\nsuite = clock\nwarp = 9\n", name="bad.ini")
    code = main(["run", "--suite", "clock", "--config", cfg,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_negative_seed_override_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\nsuite = clock\n", name="seed.ini")
    code = main(["run", "--suite", "clock", "--config", cfg,
                 "--out", str(tmp_path / "s"), "--seed", "-3"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_order_one_mild_bounds_are_zero(tmp_path, capsys):
    """at delta = 1 the operator pair coincides: every mild_bound record has
    error 0 against bound 0, which counts as a zero ratio"""
    cfg = write(tmp_path, "[drift_diffusion]\ndelta = 1.0\n", name="one.ini")
    out = tmp_path / "unit"
    assert main(["run", "--suite", "all", "--config", cfg,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    mild = {r["check_id"]: r["residual"]
            for r in json.loads((out / "report.json").read_text())
            if r["check_id"].startswith("drift_diffusion.mild_bound")}
    assert mild == {f"drift_diffusion.mild_bound[n={n}]": 0.0
                    for n in (64, 128, 256)}


@pytest.mark.parametrize("a, b, c", [(2.0, 1.0, 1.0), (4.0, 1.0, 0.4),
                                     (0.05, 1.0, 0.4), (0.2, 5.0, 0.4)])
def test_dynamics_suite_passes_off_the_default_diffusion(tmp_path, capsys,
                                                         a, b, c):
    """the spectral rectangle grows with a diffusion above 1 and never
    shrinks below the unit one, so the corner eigenfunctions stay apart and
    the Gram determinant clears gram_min both when the diffusion dominates
    and when the drift does"""
    cfg = write(tmp_path, f"[drift_diffusion]\na = {a}\nb = {b}\nc = {c}\n",
                name="diffusive.ini")
    out = tmp_path / "dyn"
    code = main(["run", "--suite", "dynamics", "--config", cfg,
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    gram = {r["check_id"]: r for r in json.loads(
        (out / "report.json").read_text())}["dynamics.gram_separation"]
    assert gram["passed"]
    assert gram["params"]["threshold"] == TOLERANCE_DEFAULTS["gram_min"] == 1e-10


def test_config_suite_runs_unless_the_flag_overrides_it(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\nsuite = clock\n")
    for flag, suite in (([], "clock"), (["--suite", "transport"], "transport")):
        out = tmp_path / suite
        assert main(["run", "--config", cfg, "--out", str(out), *flag]) == 0
        ids = [r["check_id"] for r in json.loads(
            (out / "report.json").read_text())]
        assert ids and any(i.startswith(f"{suite}.") for i in ids)
        assert not any(i.startswith("clock." if flag else "transport.")
                       for i in ids)
        assert f"(suite={suite}, seed=0)" in capsys.readouterr().out


def test_bad_suite_name_rejected_by_parser(tmp_path, capsys):
    cfg = write(tmp_path, "[run]\nsuite = all\n")
    with pytest.raises(SystemExit):
        main(["run", "--suite", "nonsense", "--config", cfg])
    capsys.readouterr()


def test_sweep_writes_grid(tmp_path):
    cfg = write(tmp_path, "[sweep]\ndelta_list = 0.7, 1.0\nn_list = 32\n",
                name="sweep.ini")
    out = tmp_path / "sw"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "n", "a", "b", "c", "conjugacy_residual",
                       "law_residual", "correspondence_residual"]
    assert len(rows) == 3  # header + 2 cells
    for row in rows[1:]:
        assert all(float(cell) == float(cell) for cell in row)  # finite


def test_sweep_at_small_orders(tmp_path):
    """at small orders the orbit starts from x0 far below t = 1 (ln t ~ -2217
    at delta = 0.02), where it steps in ln t; every correspondence cell
    must stay finite and within the orbit tolerance."""
    cfg = write(tmp_path, "[sweep]\ndelta_list = 0.05, 0.1, 0.2\nn_list = 32\n",
                name="sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["delta"]) for r in rows] == [0.05, 0.1, 0.2]
    for row in rows:
        assert all(np.isfinite(float(cell)) for cell in row.values())
        assert (float(row["correspondence_residual"])
                <= TOLERANCE_DEFAULTS["orbit_oracle"])


def test_sweep_overflow_is_a_non_finite_cell(tmp_path, capsys):
    """at c = 8 and delta = 0.02 the clamped twin's flow overflows on the
    way to classical time 100: those law cells are written as inf and the
    sweep exits 1 instead of ending in a traceback"""
    cfg = write(tmp_path, "[drift_diffusion]\nc = 8\n"
                "[sweep]\ndelta_list = 0.02, 0.4\nn_list = 16, 32\n",
                name="sweep.ini")
    out = tmp_path / "sw"
    # the dense flow is refused as non-finite without a RuntimeWarning,
    # which the test configuration turns into an error
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    law = {(float(r["delta"]), int(r["n"])): float(r["law_residual"])
           for r in rows}
    assert sorted(law) == [(0.02, 16), (0.02, 32), (0.4, 16), (0.4, 32)]
    assert law[0.02, 16] == law[0.02, 32] == math.inf
    assert np.isfinite(law[0.4, 16]) and np.isfinite(law[0.4, 32])
    assert "2 non-finite residual cells" in capsys.readouterr().err


def _run_ids(tmp_path, suite, text, name):
    cfg = write(tmp_path, text, name=f"{name}.ini")
    out = tmp_path / name
    assert main(["run", "--suite", suite, "--config", cfg,
                 "--out", str(out)]) in (0, 1)
    ids = [r["check_id"] for r in json.loads((out / "report.json").read_text())]
    assert len(ids) == len(set(ids))
    return set(ids)


@pytest.mark.parametrize("suite", ["dynamics", "drift-diffusion"])
@pytest.mark.parametrize("coefficient", [1e-4, 1e6])
def test_coefficient_range_ends_in_verdicts(tmp_path, capsys, suite,
                                            coefficient):
    """a = b = c at either end of COEFFICIENT_RANGE: a complete report with
    the default run's check ids, no traceback; one step outside is rejected"""
    lo, hi = COEFFICIENT_RANGE
    assert coefficient in (lo, hi)
    full = _run_ids(tmp_path, suite, "", "default")
    text = "[drift_diffusion]\n" + "".join(
        f"{key} = {coefficient!r}\n" for key in "abc")
    assert _run_ids(tmp_path, suite, text, "corner") == full
    away = 0.0 if coefficient == lo else math.inf
    outside = float(np.nextafter(coefficient, away))
    for key in "abc":
        text = f"[drift_diffusion]\n{key} = {outside!r}\n"
        with pytest.raises(ConfigError, match="must lie in"):
            parse_config(write(tmp_path, text))
    capsys.readouterr()


ORDER_KEYS = [("orders", "delta_list"), ("drift_diffusion", "delta"),
              ("transport", "alpha"), ("sweep", "delta_list")]


@pytest.mark.parametrize("section, key", ORDER_KEYS)
def test_order_below_floor_exits_two(tmp_path, capsys, section, key):
    below = float(np.nextafter(ORDER_FLOOR, 0.0))
    cfg = write(tmp_path, f"[{section}]\n{key} = {below!r}\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["run", "--suite", "clock", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_runs_at_the_order_floor_end_in_verdicts(tmp_path, capsys):
    """every order key at the floor: a complete report with unique ids and
    a finite sweep cell, no traceback."""
    text = "".join(f"[{section}]\n{key} = {ORDER_FLOOR}\n"
                   for section, key in ORDER_KEYS if section != "sweep")
    text += (f"[sweep]\ndelta_list = {ORDER_FLOOR}\nn_list = 16\n"
             "[grids]\nn_list = 16, 32\nn_resolvent = 16\nn_eigen = 16\n")
    cfg = write(tmp_path, text)
    out = tmp_path / "floor"
    # the graded drift-diffusion operator's boundary modes overflow its
    # flow at the floor order (a known defect of that operator); the flow
    # is refused without a RuntimeWarning
    assert main(["run", "--suite", "all", "--config", cfg,
                 "--out", str(out)]) in (0, 1)
    ids = [r["check_id"] for r in json.loads((out / "report.json").read_text())]
    assert len(ids) == len(set(ids))
    assert f"clock.roundtrip[delta={ORDER_FLOOR}]" in ids
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with (out / "sweep.csv").open() as fh:
        (row,) = csv.DictReader(fh)
    assert all(np.isfinite(float(cell)) for cell in row.values())
    capsys.readouterr()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_non_finite_residuals_are_written_as_strict_json(tmp_path, capsys):
    """at delta = 0.3 the graded flow overflows for n = 64, 128, 256: the
    three records are inf residuals, written null, that FAIL, and the file
    stays JSON"""
    cfg = write(tmp_path, "[drift_diffusion]\ndelta = 0.3\n")
    out = tmp_path / "dd"
    # the graded operator has no pairs here; its dense exponential
    # overflows while squaring, and the state it yields is refused as inf
    # with no RuntimeWarning, which the test configuration makes an error
    assert main(["run", "--suite", "drift-diffusion", "--config", cfg,
                 "--out", str(out)]) == 1
    records = _strict_json((out / "report.json").read_text())
    assert len(records) == 11
    failed = {r["check_id"]: r for r in records if not r["passed"]}
    assert sorted(failed) == [f"drift_diffusion.mild_bound[n={n}]"
                              for n in (128, 256, 64)]
    for rec in failed.values():
        assert rec["residual"] is None
        assert rec["params"]["residual_kind"] == "inf"
    assert all(isinstance(r["residual"], float) for r in records
               if r["passed"])
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    assert "0 verdict flips" in capsys.readouterr().out


@pytest.mark.parametrize("delta, kinds", [
    (0.4, {64: None, 128: "inf", 256: "inf"}),
    (0.45, {64: None, 128: None, 256: None}),
])
def test_growing_graded_flows_end_in_verdicts(tmp_path, capsys, delta, kinds):
    """below delta = 1/2 the graded operator's pairs are certified but its
    spectrum reaches far above 0: every mild_bound FAILs, and where the
    eigenbasis flow leaves double range the record is a null residual of
    the kind given (None: finite), reached without a warning.  The report
    is complete strict JSON and nothing else fails"""
    cfg = write(tmp_path, f"[drift_diffusion]\ndelta = {delta}\n")
    out = tmp_path / "dd"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--suite", "drift-diffusion", "--config", cfg,
                     "--out", str(out)]) == 1
    records = _strict_json((out / "report.json").read_text())
    assert len(records) == len({r["check_id"] for r in records}) == 11
    failed = {r["check_id"]: r for r in records if not r["passed"]}
    assert sorted(failed) == sorted(f"drift_diffusion.mild_bound[n={n}]"
                                    for n in kinds)
    for n, kind in kinds.items():
        rec = failed[f"drift_diffusion.mild_bound[n={n}]"]
        assert rec["params"].get("residual_kind") == kind
        assert (rec["residual"] is None) == (kind is not None)
    capsys.readouterr()


def test_overflowing_twin_flow_ends_in_verdicts(tmp_path, capsys):
    """at c = 1e6 the twin's exp(s lam) leaves double range in its
    eigenbasis: without a warning or a dense flow, the three mild_bound
    records are inf FAILs, beside the confluent_continuity FAIL"""
    cfg = write(tmp_path, "[drift_diffusion]\nc = 1e6\n")
    out = tmp_path / "dd"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--suite", "drift-diffusion", "--config", cfg,
                     "--out", str(out)]) == 1
    records = _strict_json((out / "report.json").read_text())
    failed = {r["check_id"]: r["params"].get("residual_kind")
              for r in records if not r["passed"]}
    assert failed == {"drift_diffusion.confluent_continuity": None,
                      **{f"drift_diffusion.mild_bound[n={n}]": "inf"
                         for n in (64, 128, 256)}}
    capsys.readouterr()


def test_non_finite_params_are_strings(tmp_path):
    from confsemi.reports import (CheckReport, read_report_json,
                                  write_report_json)
    rep = CheckReport.from_residual(
        "x", {"ratio": float("nan"), "orders": [1.0, float("-inf")]},
        float("inf"), 1.0, wall_time=0.0, seed=0)
    write_report_json([rep], tmp_path / "report.json")
    (rec,) = _strict_json((tmp_path / "report.json").read_text())
    assert rec["residual"] is None and rec["passed"] is False
    assert rec["params"] == {"orders": [1.0, "-inf"], "ratio": "nan",
                             "residual_kind": "inf"}
    back = read_report_json(tmp_path / "report.json")["x"]
    assert back["residual"] == float("inf")


def test_dict_params_are_json_objects(tmp_path):
    """a dict param is an object with string keys whose values get the
    strict coding, and one compact JSON cell in summary.csv"""
    from confsemi.reports import (CheckReport, read_report_json,
                                  write_report_json, write_summary_csv)
    rep = CheckReport.from_residual(
        "x", {"per_delta": {0.5: 2e-14, "1.0": float("inf")}}, 0.0, 1.0,
        wall_time=0.0, seed=0)
    want = {"0.5": 2e-14, "1.0": "inf"}
    write_report_json([rep], tmp_path / "report.json")
    (rec,) = _strict_json((tmp_path / "report.json").read_text())
    assert rec["params"]["per_delta"] == want
    back = read_report_json(tmp_path / "report.json")["x"]
    assert back["params"]["per_delta"] == want
    write_summary_csv([rep], tmp_path / "summary.csv")
    with (tmp_path / "summary.csv").open() as fh:
        header, row = csv.reader(fh)
    assert json.loads(row[header.index("per_delta")]) == want


# compare -------------------------------------------------------------------

def test_compare_same_ids_exits_zero(tmp_path, capsys):
    _, out_a = run_cli(tmp_path, seed="1", tag="c1")
    _, out_b = run_cli(tmp_path, seed="2", tag="c2")
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    assert "0 added, 0 removed, 0 verdict flips" in capsys.readouterr().out


def test_compare_reports_changes_and_exits_one(tmp_path, capsys):
    _, out_a = run_cli(tmp_path, tag="c3")
    records = json.loads((out_a / "report.json").read_text())
    first, second = records[0], records[1]
    # a verdict flip, a 10x residual move, one id dropped and one added
    first.update(passed=False, residual=2.0 * first["tolerance"] + 1.0)
    second["residual"] = 100.0 * second["residual"] + 1e-300
    gone = records.pop()
    records.append(dict(gone, check_id="clock.invented"))
    out_b = tmp_path / "edited"
    out_b.mkdir()
    (out_b / "report.json").write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 1
    out = capsys.readouterr().out
    assert f"flip: {first['check_id']}: PASS -> FAIL" in out
    assert f"moved: {second['check_id']}" in out
    assert f"removed: {gone['check_id']}" in out
    assert "added: clock.invented" in out


def one_record_report(directory, residual):
    """A hand-written report.json holding one check "x" at gate 1.0."""
    finite = math.isfinite(residual)
    record = {"check_id": "x",
              "params": {} if finite else {"residual_kind": repr(residual)},
              "residual": residual if finite else None,
              "tolerance": 1.0, "passed": residual <= 1.0, "seed": 0}
    directory.mkdir()
    (directory / "report.json").write_text(json.dumps([record]))
    return str(directory)


@pytest.mark.parametrize("old, new, moved", [
    (float("inf"), float("nan"), 1),
    (float("nan"), 5.0, 1),
    (5.0, float("inf"), 1),
    (5.0, 40.0, 0),
    (5.0, 60.0, 1),
    (float("nan"), float("nan"), 0),
    (float("inf"), float("inf"), 0),
])
def test_compare_counts_moves_between_residual_kinds(tmp_path, capsys,
                                                     old, new, moved):
    """a residual that turns non-finite, finite again, or from inf to nan
    has moved; a FAIL that stays a FAIL is no flip"""
    before = one_record_report(tmp_path / "before", old)
    after = one_record_report(tmp_path / "after", new)
    assert main(["compare", before, after]) == 0
    out = capsys.readouterr().out
    assert f"0 verdict flips, {moved} residuals moved over 10x" in out
    assert ("moved: x: " in out) == bool(moved)


@pytest.mark.parametrize("content", [None, "{not json", '{"a": 1}',
                                     '[{"check_id": "x"}]',
                                     '[{"check_id": "x", "residual": null, '
                                     '"passed": false, "params": {}}]',
                                     '[{"check_id": "x", "residual": 0.0, '
                                     '"passed": true}, {"check_id": "x", '
                                     '"residual": 0.0, "passed": true}]'])
def test_compare_unreadable_input_exits_two(tmp_path, capsys, content):
    _, out_a = run_cli(tmp_path, tag="c4")
    bad = tmp_path / "bad"
    bad.mkdir()
    if content is not None:
        (bad / "report.json").write_text(content)
    assert main(["compare", str(out_a), str(bad)]) == 2
    assert "unreadable report" in capsys.readouterr().err
