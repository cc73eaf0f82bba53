"""Output verification and failure accounting for CLI invocations.

An operation is one check record (`run`) or one sweep cell (`sweep`).  It
fails when its check reports FAIL, its sweep cell is not finite, it is missing
from the output, or the invocation errored (exit code 2, an exception, or an
unreadable output file).  Anything that makes the output itself untrustworthy
-- an errored invocation, duplicate or unexpected ids, missing ids, an exit
code that contradicts the verdicts, or a repeat whose bytes differ -- is also
recorded as a problem, which marks the whole run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

from workloads import SWEEP_COLUMNS, Job, Params, expected_ids, expected_ops


class Checker:
    """Accumulates operation counts, FAIL ids, problems and output hashes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fail_ids = Counter()
        self.problems = []
        self.hashes = {}   # job key -> sha256 of report.json / sweep.csv

    def check(self, job: Job, params: Params, rc, out_dir: Path,
              error: str | None) -> None:
        """Verify one invocation's output and count its operations."""
        ops = expected_ops(job, params)
        self.attempted += ops
        name = "sweep.csv" if job.suite is None else "report.json"
        try:
            if error is not None:
                raise ValueError(error)
            if rc not in (0, 1):
                raise ValueError(f"exit code {rc}")
            data = (out_dir / name).read_bytes()
            if job.suite is None:
                failed, any_bad = self._check_sweep(job, params, data)
            else:
                failed, any_bad = self._check_report(job, params, data)
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
            self._problem(job, f"errored: {exc}")
            self.failed += ops
            return
        if rc != (1 if any_bad else 0):
            self._problem(job, f"exit code {rc} contradicts the verdicts")
        digest = hashlib.sha256(data).hexdigest()
        if self.hashes.setdefault(job.key, digest) != digest:
            self._problem(job, f"{name} differs between repeats")
        self.failed += failed

    def _problem(self, job: Job, text: str) -> None:
        self.problems.append(f"{job.key}: {text}")

    def _check_report(self, job: Job, params: Params, data: bytes) -> tuple:
        records = json.loads(data)
        ids = [rec["check_id"] for rec in records]
        expected = expected_ids(job.suite, params)
        dupes = sorted(cid for cid, k in Counter(ids).items() if k > 1)
        unexpected = sorted(set(ids) - expected)
        missing = sorted(expected - set(ids))
        if dupes:
            self._problem(job, f"duplicate ids {dupes}")
        if unexpected:
            self._problem(job, f"unexpected ids {unexpected}")
        if missing:
            self._problem(job, f"missing ids {missing}")
        fails = sorted({rec["check_id"] for rec in records
                        if rec["passed"] is not True} & expected)
        self.fail_ids.update(fails)
        any_bad = any(rec["passed"] is not True for rec in records)
        return len(fails) + len(missing), any_bad

    def _check_sweep(self, job: Job, params: Params, data: bytes) -> tuple:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
            raise ValueError("sweep.csv header does not match the columns")
        cells = [(d, n) for d in params.sweep_deltas for n in params.sweep_n_list]
        body = rows[1:]
        if len(body) != len(cells):
            self._problem(job, f"{len(body)} sweep rows, expected {len(cells)}")
        missing = max(len(cells) - len(body), 0)
        non_finite = 0
        for row, (d, n) in zip(body, cells):
            if len(row) != len(SWEEP_COLUMNS):
                raise ValueError(f"malformed sweep row {row}")
            if float(row[0]) != d or int(row[1]) != n:
                self._problem(job, f"row {row[:2]} out of order, expected {[d, n]}")
            if not all(math.isfinite(float(v)) for v in row[5:]):
                non_finite += 1
        return missing + non_finite, non_finite > 0
