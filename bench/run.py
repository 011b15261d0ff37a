"""Benchmark of ``rdstail``: one workload, measured for a fixed time.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, both modes

Each pass is a fresh interpreter (``bench_pass.py``) that imports the
library from ``src``, builds the inputs from the seed, runs the workload's
operations once and checks them.  Passes run one after another until the
time is up, with at least two per run, so that each pass's CLI artifacts
are compared with those of the pass before.  A fresh interpreter per pass
keeps the library's in-process caches cold, as they are for a CLI user.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
the medians over the passes, with times scaled to the nominal machine
speed (see ``bench_pass.py``).  With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics are the medians over the traced passes,
and ``trace.overhead_pct`` compares the median ``run_s`` of the two kinds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selfcheck  # noqa: E402
from tracer import METRICS  # noqa: E402

WORKLOADS = ("tail-explicit", "sft-deep", "entropy-family", "suites-cli")
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sweep_s", "s"),
    ("point_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
)
WORK_ROOT = ".bench_work"
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, run_dir: str, index: int) -> dict:
    env = dict(os.environ)
    env.pop("RDSTAIL_BUDGETS", None)  # the workloads are sized for the default budgets
    env["PYTHONPATH"] = os.path.abspath("src")
    cmd = [
        sys.executable, os.path.join(HERE, "bench_pass.py"),
        "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
        "--run-dir", run_dir, "--index", str(index),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} of {workload} ran over {PASS_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index} of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and return the result object."""
    run_dir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    pattern = (False, True) if trace else (False,)
    passes: list[tuple[bool, dict]] = []
    os.makedirs(run_dir)
    try:
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            for traced in pattern:
                passes.append((traced, run_pass(workload, seed, traced, run_dir, len(passes))))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    plain = [p for traced, p in passes if not traced]
    result = {
        "correct": all(p["correct"] for _, p in passes) and all(p["compared"] for _, p in passes[1:]),
        "attempted": sum(p["attempted"] for _, p in passes),
        "failed": sum(p["failed"] for _, p in passes),
    }
    if not trace:
        result["metrics"] = {
            name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        result["passes"] = len(plain)
        result["kernel_s"] = statistics.median(p["kernel_s"] for p in plain)
        return result
    traced = [p for t, p in passes if t]
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name, _, _ in METRICS[:-1]}
    plain_run = statistics.median(p["run_s"] for p in plain)
    traced_run = statistics.median(p["run_s"] for p in traced)
    layers["trace.overhead_pct"] = 100 * (traced_run - plain_run) / plain_run
    result["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit, _ in METRICS}
    result["passes"] = len(passes)
    result["kernel_s"] = statistics.median(p["kernel_s"] for _, p in passes)
    return result


def report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:42s} {m['value']:>16.6f} {m['unit']}")
    print(f"{workload:15s} passes {result['passes']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}, "
          f"calibration kernel {1000 * result['kernel_s']:.1f} ms")


def main() -> int:
    ap = argparse.ArgumentParser(description="rdstail benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "rdstail", "__init__.py")) or not os.path.isdir("scenarios"):
        print("error: run from the root of an rdstail checkout (src/rdstail and scenarios/ are missing)",
              file=sys.stderr)
        return 2
    problems = selfcheck.run()
    if problems:
        for p in problems:
            print(f"self-check failed: {p}", file=sys.stderr)
        return 1
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            report(args.workload, result)
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = measure(workload, args.seed, args.seconds, trace)
                report(workload, result)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = m
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
