"""One worker process of a benchmark run.

Runs one workload under the interpreter's current ``PYTHONHASHSEED``:
set-up (repeated, each timed), an untimed warm-up pass, then as many
timed passes as its time budget buys.  With ``--trace 1`` half of them run with every layer
wrapped in spans.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from pathlib import Path

from layers import TARGETS, pass_layers
from spans import SpanRecorder, instrumented, self_times
from speed import Stopwatch
from workloads import WORKLOADS


def pass_count(workload, budget: float) -> int:
    """Passes (at least one) that fill ``budget`` at the workload's
    nominal pass wall: a count, not a deadline, so both sides of a
    comparison do the same work."""
    return max(1, round(budget / workload.PASS_SECONDS))


def timed_passes(workload, count: int, recorder=None) -> list[dict]:
    passes = []
    for _ in range(count):
        if recorder is None:
            passes.append(workload.run_pass(None))
            continue
        with instrumented(recorder, TARGETS):
            result = workload.run_pass(recorder)
        result["layers"] = pass_layers(*recorder.take())
        passes.append(result)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    result: dict = {"hash_seed": os.environ.get("PYTHONHASHSEED")}
    try:
        recorder = SpanRecorder() if args.trace else None
        if recorder is None:
            result["setup_s"], result["setup_wall_s"] = [], []
            for _ in range(workload.SETUP_REPEATS):
                gc.collect()
                watch = Stopwatch()
                workload.setup(watch.split)
                watch.stop()
                result["setup_s"].append(watch.scaled)
                result["setup_wall_s"].append(watch.wall)
        else:
            with instrumented(recorder, TARGETS):
                workload.setup()
            spans, counts = recorder.take()
            result["setup_layers"] = {"self": self_times(spans),
                                      "counts": counts}
        workload.warmup()
        count = pass_count(workload, args.budget)
        if recorder is None:
            result["passes"] = timed_passes(workload, count)
        else:
            # Half the passes untraced, half traced: their difference
            # is the tracing overhead.
            half = max(1, count // 2)
            result["passes"] = timed_passes(workload, half)
            result["traced"] = timed_passes(workload, half, recorder)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
