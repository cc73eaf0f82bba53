"""Config parsing, the command-line front end, and its exit contract."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from confsemi import ConfigError, default_config, parse_config
from confsemi.cli import main
from confsemi.config import ORDER_FLOOR, SUITE_NAMES, TOLERANCE_DEFAULTS


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
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[run]\nsuite = clock\n\n[extra]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[run]\nsuite = clock\nturbo = yes\n"))


def test_unknown_tolerance_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[tolerances]\nmystery = 1e-3\n"))


@pytest.mark.parametrize("text", [
    "[run]\nsuite = warp\n",
    "[transport]\nweight = sawtooth\n",
    "[orders]\ndelta_list = 0.4, 1.7\n",
    "[grids]\nn_list = 8\n",
    "[tolerances]\nlaw = -1e-3\n",
    "[run]\nseed = sometimes\n",
    "[tolerances]\nlaw = nan\n",
    "[tolerances]\nlaw = inf\n",
    "[run]\nseed = -3\n",
    "[drift_diffusion]\na = -1\n",
    "[drift_diffusion]\na = nan\n",
    "[drift_diffusion]\nb = inf\n",
    "[drift_diffusion]\nc = 0\n",
    "[orders]\ndelta_list = 0.5, 0.5\n",
    "[grids]\nn_list = 64, 64\n",
    "[sweep]\ndelta_list = 0.4, 0.4\n",
    "[sweep]\nn_list = 32, 32\n",
])
def test_invalid_values_rejected(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, text))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.ini"))


def test_overrides(tmp_path):
    cfg = parse_config(write(tmp_path, "[run]\nsuite = clock\n"))
    bumped = cfg.with_overrides(out_dir="other", seed=5)
    assert bumped.out_dir == "other"
    assert bumped.seed == 5
    assert cfg.seed == 0  # original untouched


def test_suite_names_cover_cli_choices():
    assert "all" in SUITE_NAMES
    assert len(SUITE_NAMES) == 8


# command line ----------------------------------------------------------------

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
    """the orbit starts at t0 = (1e-3 delta)**(1/delta), far below 1 for
    small orders; the step-size floor must scale with t, not with 1."""
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
    # flow at the floor order (a known defect of that operator)
    with pytest.warns(RuntimeWarning, match="overflow"):
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
    three records are null residuals that FAIL, and the file stays JSON"""
    cfg = write(tmp_path, "[drift_diffusion]\ndelta = 0.3\n")
    out = tmp_path / "dd"
    # the overflowing flow then meets inf - inf: "invalid value" follows
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        assert main(["run", "--suite", "drift-diffusion", "--config", cfg,
                     "--out", str(out)]) == 1
    records = _strict_json((out / "report.json").read_text())
    failed = {r["check_id"]: r for r in records if not r["passed"]}
    assert sorted(failed) == [f"drift_diffusion.mild_bound[n={n}]"
                              for n in (128, 256, 64)]
    for rec in failed.values():
        assert rec["residual"] is None
        assert rec["params"]["residual_kind"] in ("nan", "inf")
    assert all(isinstance(r["residual"], float) for r in records
               if r["passed"])
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    assert "0 verdict flips" in capsys.readouterr().out


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
