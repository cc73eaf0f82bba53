"""Check reporting: one record per verified identity, JSON/CSV serialization.

report.json must be byte-identical across runs with equal config and seed, so
the volatile wall_time field stays on the in-memory record (and in console
output) but is excluded from both serialized forms.  report.json is strict
JSON: a non-finite residual is written as null with its kind ("nan", "inf")
in params["residual_kind"], and non-finite param floats as strings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["CheckReport", "read_report_json", "write_report_json",
           "write_summary_csv"]


@dataclass
class CheckReport:
    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    wall_time: float
    seed: int

    def __post_init__(self) -> None:
        # keep the pass flag honest against the recorded numbers
        if self.passed != (self.residual <= self.tolerance):
            raise ValueError(
                f"{self.check_id}: passed={self.passed} contradicts "
                f"residual={self.residual} vs tolerance={self.tolerance}")

    @classmethod
    def from_residual(cls, check_id: str, params: dict, residual: float,
                      tolerance: float, wall_time: float, seed: int) -> "CheckReport":
        return cls(check_id=check_id, params=dict(params), residual=float(residual),
                   tolerance=float(tolerance), passed=bool(residual <= tolerance),
                   wall_time=float(wall_time), seed=int(seed))

    def json_dict(self) -> dict:
        params = dict(self.params)
        residual = self.residual
        if not math.isfinite(residual):
            params["residual_kind"] = repr(residual)
            residual = None
        return {
            "check_id": self.check_id,
            "params": {k: _plain(v) for k, v in sorted(params.items())},
            "residual": residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }

    def one_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id}: residual {self.residual:.3e} "
                f"vs tolerance {self.tolerance:.3e} ({self.wall_time*1e3:.1f} ms)")


def _plain(value):
    """Coerce params to strict-JSON primitives (repr for complex numbers and
    non-finite floats)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, complex):
        return f"{value.real:+.12g}{value.imag:+.12g}j"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def write_report_json(reports: Iterable[CheckReport], path) -> None:
    ordered = sorted(reports, key=lambda r: r.check_id)
    payload = [r.json_dict() for r in ordered]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False,
                                     allow_nan=False) + "\n")


def read_report_json(path) -> dict:
    """check_id -> record of a report.json that write_report_json wrote.

    A null residual is read back as the float its params["residual_kind"]
    names.  Raises OSError when the file cannot be read and ValueError when
    it is not such a report (bad JSON, missing fields, repeated ids).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"{path}: not a list of check records")
    records = {}
    for rec in data:
        if isinstance(rec, dict) and rec.get("residual", 0.0) is None:
            params = rec.get("params")
            kind = params.get("residual_kind") if isinstance(params, dict) else None
            if kind in ("nan", "inf", "-inf"):
                rec["residual"] = float(kind)
        if not (isinstance(rec, dict) and isinstance(rec.get("check_id"), str)
                and isinstance(rec.get("residual"), float)
                and isinstance(rec.get("passed"), bool)):
            raise ValueError(f"{path}: malformed check record {rec!r:.80}")
        if rec["check_id"] in records:
            raise ValueError(f"{path}: repeated check id {rec['check_id']}")
        records[rec["check_id"]] = rec
    return records


def write_summary_csv(reports: Iterable[CheckReport], path) -> None:
    ordered = sorted(reports, key=lambda r: r.check_id)
    param_keys = sorted({k for r in ordered for k in r.params})
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", *param_keys, "residual", "tolerance", "passed"])
        for r in ordered:
            row = [r.check_id]
            row += [_csv_cell(r.params.get(k, "")) for k in param_keys]
            row += [repr(r.residual), repr(r.tolerance), str(r.passed).lower()]
            writer.writerow(row)


def _csv_cell(value) -> str:
    plain = _plain(value)
    if isinstance(plain, list):
        return ";".join(str(v) for v in plain)
    return str(plain)
