"""confsemi benchmark: one run of one workload through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from `src/`
there.  With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
the per-layer metrics (see BENCHMARK.json and perfbench/README.md).  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  Work files live under `.perfbench/` in the checkout; the record of
each run is kept in `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from metrics import END_TO_END, PER_LAYER
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
# the whole run must end within 180 s; a traced fine-grid run takes ~50 s
WORKER_TIMEOUT_S = 160


def child_env(root: Path) -> dict:
    """The environment of every child: one BLAS thread, the checkout's src/."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(args, root: Path, env: dict, work: Path, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--work", str(work), "--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "confsemi" / "cli.py").is_file():
        print(f"no confsemi sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    base = root / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = base / f"work-{os.getpid()}"
    work.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        out = run_worker(args, root, env, work, results / f"{stem}.spans.jsonl")
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = out["layer"]
        wanted = PER_LAYER
    else:
        values = out["e2e"]
        wanted = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in wanted}
    line = {"correct": not out["problems"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}

    record = dict(out, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, result=line)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(out["env"]))
    print(f"{len(out['pass_walls'])} passes, FAIL verdicts {json.dumps(out['fail_ids'])}")
    for problem in out["problems"]:
        print(f"problem: {problem}")
    for key, share in sorted(out.get("layer_share", {}).items(),
                             key=lambda kv: -kv[1]):
        print(f"share {key} {share:.3f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
