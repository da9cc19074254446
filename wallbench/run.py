"""Wall-clock benchmark of the learner, the DBT and the rule service.

Usage, from the root of a checkout:

    python3 wallbench/run.py --workload learn --seed 1 --seconds 12 --trace 0

Each run starts one worker process per hash seed in ``HASH_SEEDS``, one
after another, and splits ``--seconds`` of timed passes between them.
Python's string hashing changes dict layouts and with them the speed
of the interpreter loop, so every run measures the same fixed set of
hash seeds; counts must repeat exactly across all of them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Lines above it
give the same figures by name, with provenance.  End-to-end times are
seconds at reference speed (``speed.py``); the plain wall-clock
medians are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from stats import median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("learn", "ref-exec", "corpus-translate", "gap-journey")
HASH_SEEDS = (1, 2)
RUN_TIMEOUT_S = 170.0
#: Largest share of traced wall that no layer span may account for.
MAX_UNATTRIBUTED = 0.10

#: What ``main_s`` and ``base_s`` are called on each workload.
LEG_NAMES = {
    "learn": ("learn_s", "relearn_s"),
    "ref-exec": ("rules_s", "qemu_s"),
    "corpus-translate": ("translate_s", "qemu_translate_s"),
    "gap-journey": ("journey_s", "replay_s"),
}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run_workers(args) -> list[dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else [])
    )
    results = []
    for hash_seed in HASH_SEEDS:
        env["PYTHONHASHSEED"] = str(hash_seed)
        workdir = Path(".bench_work") / \
            f"{args.workload}-h{hash_seed}-{os.getpid()}"
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", str(args.seconds / len(HASH_SEEDS)),
            "--trace", str(args.trace), "--workdir", str(workdir),
        ]
        # Its own process group, so a timeout also stops the
        # repro-serve the worker may have started.
        worker = subprocess.Popen(command, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  start_new_session=True)
        try:
            stdout, _ = worker.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
        finally:
            shutil.rmtree(ROOT / workdir, ignore_errors=True)
        if worker.returncode != 0:
            raise RuntimeError(
                f"worker for hash seed {hash_seed} exited with "
                f"{worker.returncode}"
            )
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    work_root = ROOT / ".bench_work"
    if work_root.is_dir() and not any(work_root.iterdir()):
        work_root.rmdir()
    return results


def count_checks(workers: list[dict], key: str) -> tuple[int, int, list]:
    """Output checks plus the exact-count determinism check: every
    pass, in every worker, must report identical counts."""
    attempted = failed = 0
    failures: list[str] = []
    reference = None
    for worker in workers:
        for number, result in enumerate(worker.get(key, [])):
            checks = result["checks"]
            attempted += checks["attempted"]
            failed += checks["failed"]
            failures.extend(checks["failures"])
            attempted += 1
            if reference is None:
                reference = result["counts"]
            elif result["counts"] != reference:
                failed += 1
                failures.append(
                    f"counts differ: hash seed {worker['hash_seed']} "
                    f"pass {number}"
                )
    return attempted, failed, failures


def end_to_end(workload: str, workers: list[dict]) -> tuple[dict, list]:
    passes = [p for worker in workers for p in worker["passes"]]
    metrics = {
        "setup_s": (median(t for w in workers for t in w["setup_s"]), "s"),
        "peak_rss_mb": (median(w["peak_rss_mb"] for w in workers), "MB"),
        "main_s": (median(p["legs"]["main_s"] for p in passes), "s"),
        "base_s": (median(p["legs"]["base_s"] for p in passes), "s"),
    }
    main_name, base_name = LEG_NAMES[workload]
    lines = [
        f"  {main_name:<22} = main_s  {metrics['main_s'][0]:.4f} s",
        f"  {base_name:<22} = base_s  {metrics['base_s'][0]:.4f} s",
        "  plain wall-clock medians (not scaled to reference speed): "
        f"setup {median(t for w in workers for t in w['setup_wall_s']):.4f}"
        f" s, main {median(p['walls']['main_s'] for p in passes):.4f} s, "
        f"base {median(p['walls']['base_s'] for p in passes):.4f} s",
    ]
    install = [ms for p in passes
               for ms in p["samples"].get("install_ms", [])]
    if install:
        tail = tail_percentile(len(install))
        lines.append(f"  install_ms_p50          {percentile(install, 50):.2f}"
                     f" ms (n={len(install)})")
        if tail is not None:
            lines.append(f"  install_ms_p{tail:g}          "
                         f"{percentile(install, tail):.2f} ms "
                         f"(n={len(install)}, highest percentile with "
                         f">=10 samples beyond)")
    setups = sum(len(w["setup_s"]) for w in workers)
    lines.append(f"  timed passes: {len(passes)} over {len(workers)} "
                 f"hash seeds; set-ups: {setups}")
    return metrics, lines


def per_layer(workers: list[dict]) -> tuple[dict, list]:
    traced = [p for worker in workers for p in worker["traced"]]
    untraced = [p for worker in workers for p in worker["passes"]]
    metrics = {}
    for name, (unit, kind, source) in PER_LAYER.items():
        scale = 1000.0 if unit == "ms" else 1.0
        if kind == "self":
            value = median(p["layers"]["self"].get(source, 0.0)
                           for p in traced) * scale
        elif kind == "count":
            value = traced[0]["layers"]["counts"].get(source, 0)
        elif kind == "setup":
            value = median(w["setup_layers"]["self"].get(source, 0.0)
                           for w in workers)
        else:
            value = workers[0]["setup_layers"]["counts"].get(source, 0)
        metrics[name] = (value, unit)
    # Every pass of the run, traced or not, so the run holds enough
    # samples for p90.
    install = [ms for p in traced + untraced
               for ms in p["samples"].get("install_ms", [])]
    for p in (50, 90):
        value = percentile(install, p) \
            if (tail_percentile(len(install)) or 0) >= p else 0.0
        metrics[f"install.ms_p{p}"] = (value, "ms")
    metrics["install.samples"] = (len(install), "count")
    walls = [sum(p["legs"].values()) for p in traced]
    metrics["trace.unattributed_s"] = (
        median(p["layers"]["unattributed"] for p in traced), "s")
    metrics["trace.overhead_s"] = (
        median(walls) - median(sum(p["legs"].values()) for p in untraced),
        "s")
    failures = [
        f"per-layer counts differ between traced passes {number} and 0"
        for number, p in enumerate(traced)
        if p["layers"]["counts"] != traced[0]["layers"]["counts"]
    ]
    failures += [
        f"unattributed {p['layers']['unattributed']:.3f} s is over "
        f"{MAX_UNATTRIBUTED:.0%} of traced wall {p['layers']['wall']:.3f} s"
        for p in traced
        if p["layers"]["unattributed"] > MAX_UNATTRIBUTED * p["layers"]["wall"]
    ]
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"wallbench: no program source under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2

    try:
        workers = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"wallbench: run failed: {exc}", file=sys.stderr)
        return 1

    print(f"wallbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={git_commit()} src_digest={source_digest()} "
          f"hash_seeds={','.join(map(str, HASH_SEEDS))}")
    attempted, failed, failures = count_checks(workers, "passes")
    if args.trace:
        metrics, closure = per_layer(workers)
        more_attempted, more_failed, more = count_checks(workers, "traced")
        traced = sum(len(worker["traced"]) for worker in workers)
        attempted += more_attempted + traced
        failed += more_failed + len(closure)
        failures += more + closure
        lines = []
    else:
        metrics, lines = end_to_end(args.workload, workers)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
