"""One pass of a workload in a fresh interpreter: import ``rdstail``, build
the inputs, run the timed operations once, check their outputs, and print
one JSON line with the timings.

Every time is reported scaled to the nominal machine speed: the pass runs
the calibration kernel (``calibrate.py``) before and after the operations
and multiplies each measured time by ``NOMINAL_S`` over the kernel's median
time.  The machine this was built on slowed and sped up by up to half over
minutes; the scaling takes most of that drift out of the comparison of two
runs.  ``kernel_s`` reports the kernel's raw median time.

``run.py`` starts it once per pass, from the root of a checkout with
``src`` on ``PYTHONPATH``:

    python3 bench/bench_pass.py --workload NAME --seed N --traced 0|1 \
        --run-dir DIR --index K

CLI artifacts go to ``DIR/passK``.  They are compared byte for byte with
those of pass K-1, if it is still there, which is then removed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
import workloads
from tracer import Tracer

CALIBRATION_RUNS = 5  # kernel runs before and after the operations


def run_pass(workload: str, seed: int, traced: bool, run_dir: str, index: int) -> dict:
    setup, make_ops, check = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    import rdstail as rd
    import rdstail.cli  # noqa: F401  (the CLI operations call rd.cli.main)

    import_s = time.perf_counter() - start
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    inp = setup(rd, seed, run_dir)
    setup_s = import_s + time.perf_counter() - start
    out = os.path.join(run_dir, f"pass{index}")
    ops = make_ops(rd, inp, out)
    kernel_s = calibrate.times(CALIBRATION_RUNS)
    times = {"run_s": 0.0, "sweep_s": 0.0, "point_s": 0.0, "cli_s": 0.0}
    results, failed = {}, 0
    for op in ops:
        # collect now, so that no operation pays for an earlier one's garbage
        gc.collect()
        start = time.perf_counter()
        try:
            result = op.fn(results)
        except Exception as exc:  # a failed operation is counted, not fatal
            times["run_s"] += time.perf_counter() - start
            failed += 1
            if not isinstance(exc, op.known_fault or ()):
                print(f"{op.name}: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        times["run_s"] += elapsed
        if op.incomplete(result):
            print(f"{op.name}: incomplete result {result!r:.200}", file=sys.stderr)
            failed += 1
            continue
        results[op.name] = result
        for kind in op.kinds:
            if f"{kind}_s" in times:
                times[f"{kind}_s"] += elapsed
        if tracer is not None:
            if workloads.DEEP in op.kinds:
                tracer.add("symbolic.deep_point", elapsed)
            if op.argv is not None:
                tracer.add(f"cli.{op.argv[0]}", elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.recording = False
    kernel_s += calibrate.times(CALIBRATION_RUNS)
    factor = calibrate.scale(kernel_s)

    previous = os.path.join(run_dir, f"pass{index - 1}")
    previous = previous if os.path.isdir(previous) else None
    problems = []
    for op in ops:
        if op.argv is not None and op.name in results:
            problems += workloads.check_cli(op, out, previous)
    try:
        problems += check(rd, inp, results, out)
    except Exception as exc:  # e.g. an operation failed and left no result to check
        problems.append(f"checks stopped: {type(exc).__name__}: {exc}")
    if previous is not None:
        shutil.rmtree(previous)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    report = {
        "setup_s": setup_s * factor,
        "peak_rss_mb": peak_rss_mb,
        **{name: t * factor for name, t in times.items()},
        "kernel_s": statistics.median(kernel_s),
        "attempted": len(ops),
        "failed": failed,
        "correct": not problems,
        "compared": previous is not None,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(factor)
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True, help="directory shared by the passes of one run")
    ap.add_argument("--index", type=int, required=True, help="number of this pass within the run")
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.traced), args.run_dir, args.index)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
