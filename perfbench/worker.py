"""One workload run in a fresh interpreter: a closed loop of CLI invocations.

run.py starts this script with BLAS pinned to one thread and the checkout's
`src/` on PYTHONPATH.  It calls `confsemi.cli.main` in process, one invocation
at a time, for about `--seconds` of passes, checking every
output as it goes.  With `--trace 1` it alternates untraced and traced passes
and then times the layer scaling curves.  The last stdout line is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from curves import scaling_curves
from metrics import PASS_METRICS, SPAN_NAMES, pass_metrics
from spans import Span, Tracer, summarize
from verify import Checker

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_COVERAGE = 0.95
SETUP_EVERY_S = 4.0
SETUP_TIMEOUT_S = 60
# the child reads the same system-wide monotonic clock once the import is
# done, so interpreter teardown and the parent's polling are not timed
_IMPORT = ("import time, confsemi.cli; "
           "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_rev(root: Path) -> str:
    """HEAD commit read from the .git directory, or "none" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _environment(root: Path) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = sorted((root / "src" / "confsemi").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(root),
        "src_sha256": _sha256(b"".join(p.name.encode() + p.read_bytes()
                                       for p in src)),
    }


def time_setup() -> float:
    """Seconds from spawning an interpreter until it has imported confsemi.cli.

    The child inherits this process's environment: one BLAS thread and the
    checkout's src/ on PYTHONPATH.  This process has already imported the
    package, so the bytecode cache, which users pay for once, is warm.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _IMPORT], check=True,
                          timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)
    return float(proc.stdout) - start


class Runner:
    """Runs passes of one workload and keeps what each pass measured."""

    def __init__(self, cli, workload, work: Path, sink) -> None:
        self.cli = cli
        self.workload = workload
        self.work = work
        self.sink = sink
        self.checker = Checker()
        self.config_paths = {}
        self.config_hashes = {}
        for name, (text, _) in workload.configs.items():
            path = work / f"{name}.ini"
            path.write_text(text, encoding="utf-8")
            self.config_paths[name] = str(path)
            self.config_hashes[name] = _sha256(text.encode("utf-8"))

    def invoke(self, job) -> tuple:
        """Run one CLI invocation; returns (wall seconds, output dir)."""
        out = self.work / "out" / job.key.replace("/", "_")
        shutil.rmtree(out, ignore_errors=True)
        argv = job.argv(self.config_paths[job.config], str(out))
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an errored invocation is an outcome to count
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        params = self.workload.configs[job.config][1]
        self.checker.check(job, params, rc, out, error)
        return wall, out

    def run_pass(self, jobs, tracer) -> dict:
        wall = 0.0
        report_bytes = 0
        if tracer is not None:
            tracer.install()
        try:
            for job in jobs:
                if tracer is not None:
                    tracer.request += 1
                seconds, out = self.invoke(job)
                wall += seconds
                for name in ("report.json", "summary.csv"):
                    if (out / name).exists():
                        report_bytes += (out / name).stat().st_size
        finally:
            if tracer is not None:
                tracer.uninstall()
        ops = sum(workloads.expected_ops(job, self.workload.configs[job.config][1])
                  for job in jobs)
        record = {"traced": tracer is not None, "wall": wall, "ops": ops}
        if tracer is not None:
            spans = tracer.drain()
            summary = summarize(spans)
            record.update(spans=spans, top_s=summary.top_s,
                          self_sum=sum(summary.layer_self.values()),
                          metrics=pass_metrics(summary, report_bytes))
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True,
                        help="file for the spans of the last traced pass")
    args = parser.parse_args(argv)
    root, work = Path(args.root).resolve(), Path(args.work)

    import confsemi
    import confsemi.cli as cli
    if Path(confsemi.__file__).resolve().parent != root / "src" / "confsemi":
        print(f"confsemi imported from {confsemi.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, root)
    tracer = Tracer() if args.trace else None
    problems = []
    if tracer is not None:
        missing = SPAN_NAMES - tracer.names()
        if missing:
            problems.append(f"metrics read spans that no longer exist: {sorted(missing)}")

    # set-up is timed in untraced runs only, spread over the run: twice at
    # the start, between passes at most every SETUP_EVERY_S, twice at the
    # end; that time does not count against --seconds
    setup_times = []
    setup_busy = 0.0

    def sample_setup() -> None:
        nonlocal setup_busy
        start = time.perf_counter()
        setup_times.append(time_setup())
        setup_busy += time.perf_counter() - start

    passes = []
    last_spans = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        runner = Runner(cli, workload, work, sink)
        if tracer is None:
            sample_setup()
            sample_setup()
        start = last_setup = time.perf_counter()
        while True:
            i = len(passes)
            traced = tracer is not None and i % 2 == 1
            jobs = workload.passes[i % len(workload.passes)]
            record = runner.run_pass(jobs, tracer if traced else None)
            # keep the spans of the latest traced pass only, to bound memory
            last_spans = record.pop("spans", None) or last_spans
            passes.append(record)
            if tracer is None and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                sample_setup()
                last_setup = time.perf_counter()
            elapsed = time.perf_counter() - start - setup_busy
            typical = statistics.median(p["wall"] for p in passes)
            # at least two passes, so that even a workload whose pass takes
            # most of --seconds gets a fastest-of-two (and a traced run one
            # pass of each kind); then stop when another pass would end
            # further past the deadline than the run now falls short of it
            if len(passes) >= 2 and elapsed + typical / 2 > args.seconds:
                break
        if tracer is None:
            sample_setup()
            sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = runner.checker
    plain = [p for p in passes if not p["traced"]]
    # the host's speed swings by up to 2x over seconds, independently of the
    # load here, so the fastest pass and the fastest set-up are the steadiest
    # estimates of the program's own cost; every sample stays in the record
    fastest = min(plain, key=lambda p: p["wall"])
    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": problems + checker.problems,
        "fail_ids": dict(checker.fail_ids),
        "report_sha256": checker.hashes,
        "config_sha256": runner.config_hashes,
        "pass_walls": [round(p["wall"], 6) for p in passes],
        "setup_times": [round(t, 6) for t in setup_times],
        "env": _environment(root),
        "e2e": {
            "wall_s": fastest["wall"],
            "ops_per_s": fastest["ops"] / fastest["wall"],
            "setup_s": min(setup_times) if setup_times else None,
            "peak_rss_mb": peak_rss_mb,
            "pass_share": 1.0 - checker.failed / checker.attempted,
        },
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        # counts stay whole numbers; they repeat exactly for a fixed input
        layer = {name: (statistics.median if unit == "s" else statistics.median_low)(
                     p["metrics"][name] for p in traced)
                 for name, unit, _ in PASS_METRICS}
        traced_wall = sum(p["wall"] for p in traced)
        layer["trace.overhead_s"] = (min(p["wall"] for p in traced)
                                     - result["e2e"]["wall_s"])
        layer["trace.coverage"] = sum(p["top_s"] for p in traced) / traced_wall
        if layer["trace.coverage"] < MIN_COVERAGE:
            result["problems"].append(
                f"top-level spans cover {layer['trace.coverage']:.3f} of the "
                f"traced wall time, below {MIN_COVERAGE}")
        for p in traced:
            if abs(p["self_sum"] - p["top_s"]) > 1e-9 * max(1.0, p["top_s"]):
                result["problems"].append("layer self times do not add up to "
                                          "the top-level span time")
        layer.update(scaling_curves())
        result["layer"] = layer
        result["layer_share"] = {
            key: sum(p["metrics"][key] for p in traced) / traced_wall
            for key, _, _ in PASS_METRICS if key.endswith("_s")}
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
