"""Command line front end: run a check suite, a parameter sweep, or compare
two runs.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration or usage errors.  `compare` exits 0 when both reports hold the
same check ids and no verdict flips, 1 otherwise, and 2 when a report is
missing or unreadable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

from .config import SUITE_NAMES, ConfigError, RunConfig, parse_config
from .reports import read_report_json, write_report_json, write_summary_csv
from .suites import SWEEP_COLUMNS, run_suite, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confsemi",
        description="Run numerical identity checks for rescaled-clock "
                    "semigroups and their model problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one named check suite")
    run_p.add_argument("--suite", choices=SUITE_NAMES,
                       help="which checks to run (overrides the config)")
    run_p.add_argument("--config", required=True, help="configuration file")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="random seed (overrides the config)")

    sweep_p = sub.add_parser("sweep", help="tabulate residuals over a "
                                           "parameter grid")
    sweep_p.add_argument("--config", required=True, help="configuration file")
    sweep_p.add_argument("--out", default=None,
                         help="output directory (overrides the config)")

    compare_p = sub.add_parser("compare", help="diff the report.json of two "
                                               "run directories")
    compare_p.add_argument("before", help="directory of the first run")
    compare_p.add_argument("after", help="directory of the second run")
    return parser


def _configure(args) -> RunConfig:
    """The config file, with each value given on the command line set over
    it (sweep takes only --out)."""
    flags = {"out_dir": args.out, "seed": getattr(args, "seed", None),
             "suite": getattr(args, "suite", None)}
    return replace(parse_config(args.config),
                   **{name: value for name, value in flags.items()
                      if value is not None})


def _cmd_run(args) -> int:
    cfg = _configure(args)
    reports = run_suite(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report.json")
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    write_report_json(reports, report_path)
    write_summary_csv(reports, summary_path)
    for rep in reports:
        print(rep.one_line())
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"{len(reports)} checks, {failed} failed "
          f"(suite={cfg.suite}, seed={cfg.seed})")
    print(f"wrote {report_path} and {summary_path}")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    cfg = _configure(args)
    rows = run_sweep(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep_path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[col]) if isinstance(row[col], float)
                             else row[col] for col in SWEEP_COLUMNS])
    # the parameter columns are finite by config validation
    bad = sum(1 for row in rows for col in SWEEP_COLUMNS
              if not math.isfinite(row[col]))
    print(f"{len(rows)} sweep rows -> {sweep_path}")
    if bad:
        print(f"{bad} non-finite residual cells", file=sys.stderr)
        return 1
    return 0


def _moved(old: float, new: float) -> bool:
    """True when a residual changed by over 10x, or changed kind among
    finite, inf and nan."""
    a, b = abs(old), abs(new)
    if math.isfinite(a) and math.isfinite(b):
        return a > 10.0 * b or b > 10.0 * a
    return math.isnan(a) != math.isnan(b) or math.isinf(a) != math.isinf(b)


def _cmd_compare(args) -> int:
    try:
        before, after = (read_report_json(os.path.join(d, "report.json"))
                         for d in (args.before, args.after))
    except (OSError, ValueError) as exc:
        print(f"unreadable report: {exc}", file=sys.stderr)
        return 2
    added = sorted(after.keys() - before.keys())
    removed = sorted(before.keys() - after.keys())
    flips = moved = 0
    for cid in added:
        print(f"added: {cid}")
    for cid in removed:
        print(f"removed: {cid}")
    for cid in sorted(before.keys() & after.keys()):
        old, new = before[cid], after[cid]
        change = f"residual {old['residual']:.3e} -> {new['residual']:.3e}"
        if old["passed"] != new["passed"]:
            flips += 1
            verdicts = " -> ".join("PASS" if rec["passed"] else "FAIL"
                                   for rec in (old, new))
            print(f"flip: {cid}: {verdicts} ({change})")
        if _moved(old["residual"], new["residual"]):
            moved += 1
            print(f"moved: {cid}: {change}")
    print(f"{len(before.keys() & after.keys())} common ids, {len(added)} added, "
          f"{len(removed)} removed, {flips} verdict flips, "
          f"{moved} residuals moved over 10x")
    return 1 if added or removed or flips else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
