#!/usr/bin/env python
"""Ingest gate: the corpus stream is deterministic and keeps yielding.

Runs the continuous-ingestion loop end to end, entirely in-process
(the LocalFeed path — the same learning pipeline ``repro-corpus``
drives), and checks the subsystem's four contracts:

* **yield** — a fixed-seed stream of generated programs teaches at
  least ``MIN_NOVEL_RULES`` verified rules *beyond* what the whole
  benchsuite already teaches (novelty is rule identity, which ignores
  origin/line, so rediscovering a benchsuite rule counts for nothing);
* **determinism** — a second run from fresh state reproduces the first
  run's accounting counter for counter;
* **dedup** — a third run over the first run's warm seen-store +
  verification cache skips at least ``MIN_WARM_SKIP_RATE`` of the
  stream without paying for compilation or verification;
* **reconciliation** — the per-event trace records, the embedded
  ``corpus.report`` / ``learn.report`` accounting paths, and the run's
  own ``IngestSummary`` all agree exactly, and the run satisfies the
  ``corpus-yield`` objective in ``slo.toml``.

Exit status 0 means the gate passed.  Run from the repo root:

    PYTHONPATH=src python scripts/ingest_gate.py

Set ``REPRO_GATE_ARTIFACT_DIR`` to keep the working directory at a
known path; the gate writes ``ingest_report.json`` (full verdict) and
``BENCH_ingest.json`` (the bench_compare payload) there for CI
artifact upload.
"""

import functools
import json
import time
from pathlib import Path

from repro.benchsuite import BENCHMARKS, build_learning_pair
from repro.corpus.cli import run_ingest
from repro.corpus.dedup import SeenStore
from repro.corpus.feed import LocalFeed
from repro.learning.cache import VerificationCache
from repro.learning.pipeline import learn_corpus
from repro.obs.report import aggregate, reconcile
from repro.obs.slo import SloEngine
from repro.obs.trace import read_trace, tracing

import gatekit

GATE = "ingest_gate"
GATE_SEED = 7
GATE_PROGRAMS = 40
MIN_NOVEL_RULES = 15
MIN_WARM_SKIP_RATE = 0.30
SLO_TOML = Path("slo.toml")


fail = functools.partial(gatekit.fail, GATE)


def benchsuite_baseline():
    """Every rule the benchsuite teaches — the novelty floor."""
    builds = {
        name: build_learning_pair(name) for name in BENCHMARKS
    }
    outcomes = learn_corpus(builds)
    rules = [
        rule for outcome in outcomes.values() for rule in outcome.rules
    ]
    return rules


def ingest_run(tmp: Path, label: str, baseline, state: str,
               trace_name: str | None = None):
    """One full ingestion run against the named state directory."""
    state_dir = tmp / state
    store = SeenStore.at_dir(state_dir)
    cache = VerificationCache.at_dir(state_dir / "verify-cache")
    feed = LocalFeed(cache=cache, baseline=baseline)
    trace_path = tmp / trace_name if trace_name else None
    scope = tracing(trace_path) if trace_path else None
    if scope is not None:
        with scope:
            summary = run_ingest(seed=GATE_SEED, programs=GATE_PROGRAMS,
                                 store=store, cache=cache, feed=feed)
    else:
        summary = run_ingest(seed=GATE_SEED, programs=GATE_PROGRAMS,
                             store=store, cache=cache, feed=feed)
    print(f"ingest_gate: [{label}] {summary.programs} programs, "
          f"{summary.fed} fed, {summary.skipped} skipped, "
          f"{summary.novel_rules} novel rules, "
          f"{summary.verify_calls} verify calls, "
          f"{summary.elapsed_seconds:.1f}s")
    return summary


def check_reconciliation(trace_path: Path, summary) -> int:
    """The trace's independent accounting paths must agree exactly —
    with each other and with the run's own IngestSummary."""
    records = read_trace(trace_path)
    agg = aggregate(records)
    problems = reconcile(agg)
    if problems:
        fail("trace reconciliation: " + "; ".join(problems[:5]))
    derived = agg.corpus.counts()
    for name, value in summary.counts().items():
        if derived.get(name) != value:
            fail(f"trace-derived corpus {name} {derived.get(name)} != "
                 f"IngestSummary {value}")
    return len(records)


def main() -> None:
    tmp = gatekit.work_dir("ingest-gate-")

    started = time.perf_counter()
    baseline = benchsuite_baseline()
    print(f"ingest_gate: benchsuite baseline: {len(baseline)} rules "
          f"from {len(BENCHMARKS)} benchmarks")

    # Run A: fresh state, traced — the yield + reconciliation run.
    run_a = ingest_run(tmp, "fresh", baseline, "state-a",
                       trace_name="ingest.jsonl")
    if run_a.novel_rules < MIN_NOVEL_RULES:
        fail(f"fresh run taught only {run_a.novel_rules} novel rules "
             f"(need >= {MIN_NOVEL_RULES} beyond the benchsuite)")
    # A fresh run may legitimately skip all_settled programs (earlier
    # programs in the same stream settle windows into the cache), but
    # duplicate source text from a cold start is a generator defect.
    if run_a.skipped_dup:
        fail(f"fresh run saw {run_a.skipped_dup} duplicate programs — "
             "the generator is repeating itself from a cold start")

    # Run B: fresh state again — byte-for-byte deterministic counters.
    run_b = ingest_run(tmp, "repeat", baseline, "state-b")
    if run_a.counts() != run_b.counts():
        diffs = [
            f"{name} {run_a.counts()[name]} != {run_b.counts()[name]}"
            for name in run_a.counts()
            if run_a.counts()[name] != run_b.counts()[name]
        ]
        fail("determinism: fresh reruns disagree: " + "; ".join(diffs))

    # Run C: run A's warm store + cache — the dedup layer must skip.
    run_c = ingest_run(tmp, "warm", baseline, "state-a")
    if run_c.dedup_skip_rate < MIN_WARM_SKIP_RATE:
        fail(f"warm rerun skipped only {run_c.dedup_skip_rate:.0%} "
             f"(need >= {MIN_WARM_SKIP_RATE:.0%})")
    if run_c.verify_calls >= run_a.verify_calls:
        fail(f"warm rerun paid {run_c.verify_calls} verify calls vs "
             f"{run_a.verify_calls} cold — the verification cache is "
             "not settling windows")

    records = check_reconciliation(tmp / "ingest.jsonl", run_a)
    print(f"ingest_gate: reconciliation OK ({records} trace records)")

    report = SloEngine.from_toml(SLO_TOML).evaluate(gauges={
        "gauge:corpus_novel_rules_per_min": run_a.novel_per_minute,
    })
    if report["breaches"]:
        fail("SLO breach: " + ", ".join(report["breaches"]))
    print(f"ingest_gate: SLOs OK "
          f"({run_a.novel_per_minute:.1f} novel rules/min)")

    verdict = {
        "seed": GATE_SEED,
        "baseline_rules": len(baseline),
        "fresh": run_a.to_json(),
        "repeat": run_b.to_json(),
        "warm": run_c.to_json(),
        "trace_records": records,
        "slo": report,
        "gate_seconds": round(time.perf_counter() - started, 3),
    }
    (tmp / "ingest_report.json").write_text(
        json.dumps(verdict, indent=1) + "\n"
    )
    bench = {
        "bench": "ingest_gate",
        "programs": run_a.programs,
        "fed": run_a.fed,
        "novel_rules": run_a.novel_rules,
        "verify_calls": run_a.verify_calls,
        "warm_skip_rate": round(run_c.dedup_skip_rate, 4),
        "warm_verify_calls": run_c.verify_calls,
        "novel_rules_per_min": round(run_a.novel_per_minute, 3),
        "elapsed_seconds": round(run_a.elapsed_seconds, 3),
    }
    (tmp / "BENCH_ingest.json").write_text(
        json.dumps(bench, indent=1) + "\n"
    )
    print(f"ingest_gate: artifacts in {tmp}")
    print("ingest_gate: PASS")


if __name__ == "__main__":
    main()
