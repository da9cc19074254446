"""Bench: translate-path raw speed — legacy vs indexed vs indexed+DP.

Emits ``BENCH_translate.json`` at the repo root: rule-lookup
throughput (lookups/sec, ns/lookup) for the paper's opcode-mean hash
matcher vs. the mnemonic-trie index, and whole-block translation
throughput (blocks/sec, ms/block) for the greedy cover under both
matchers plus the indexed lowest-cost DP cover, and the DP cover's
ms/block over the indexed greedy cover's (``dp_vs_greedy``).  ``cpus``
records the CPUs the run could use.  The acceptance gate is the
indexed matcher sustaining at least 2x the legacy matcher's
lookups/sec on the real learned-rule population.

The five legs are interleaved over :data:`ROUNDS` short rounds, after
one untimed warm-up round, so load on a shared host lands on every leg
alike.  Each leg records its median seconds per round (the rates come
from it) and its fastest and slowest round.  ``lookup_speedup`` and
``dp_vs_greedy`` are the medians of the per-round ratios: the two legs
of a ratio ran back to back in the same round, so host-speed drift
between rounds cancels.  On a shared host a single timing per leg
moves such a ratio by up to 40% between runs of identical code.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.dbt.frontend import discover_block
from repro.dbt.ruletrans import translate_block_with_rules
from repro.learning.store import RuleStore

_OUT_DIR = Path(
    os.environ.get("REPRO_BENCH_OUT_DIR")
    or Path(__file__).resolve().parent.parent
)
_OUT_DIR.mkdir(parents=True, exist_ok=True)
OUTPUT = _OUT_DIR / "BENCH_translate.json"

#: Workload the translate path is timed on (rules learned from the
#: other benchmarks, the cross-program evaluation split).
TARGET = "gcc"
#: Acceptance gate: indexed lookups/sec over legacy lookups/sec.
MIN_LOOKUP_SPEEDUP = 2.0
#: Timed rounds; each round runs every leg once.
ROUNDS = 31
#: Repetitions per leg and round — each sweep walks every position of
#: every block.
LOOKUP_REPS = 4
TRANSLATE_REPS = 1


def _blocks(program):
    starts = [
        start for start in sorted(set(program.labels.values()))
        if start < len(program.code)
    ]
    return starts, [discover_block(program, s) for s in starts]


def _lookup_leg(store, blocks, reps):
    """One round of the lookup leg: (seconds, hit positions)."""
    hits = 0
    t0 = time.perf_counter()
    for _ in range(reps):
        hits = 0
        for block in blocks:
            match_at = store.match_at
            for i in range(len(block)):
                if match_at(block, i) is not None:
                    hits += 1
    return time.perf_counter() - t0, hits


def _translate_leg(program, starts, store, cover, reps):
    """One round of a translation leg: (seconds, None)."""
    t0 = time.perf_counter()
    for _ in range(reps):
        for start in starts:
            translate_block_with_rules(program, start, store, cover=cover)
    return time.perf_counter() - t0, None


def _ratio(numerators, denominators, digits):
    return round(statistics.median(
        n / d for n, d in zip(numerators, denominators)
    ), digits)


def _spread(samples):
    return {
        "seconds": round(statistics.median(samples), 4),
        "seconds_min": round(min(samples), 4),
        "seconds_max": round(max(samples), 4),
    }


def _lookup_row(samples, hits, positions, reps):
    row = {"positions": positions, "hit_positions": hits,
           **_spread(samples)}
    seconds = statistics.median(samples)
    lookups = positions * reps
    row.update(
        lookups_per_second=round(lookups / seconds),
        ns_per_lookup=round(seconds / lookups * 1e9, 1),
        ns_per_hit=round(seconds / max(hits * reps, 1) * 1e9, 1),
    )
    return row


def _translate_row(samples, blocks):
    row = _spread(samples)
    seconds = statistics.median(samples)
    row.update(
        blocks_per_second=round(blocks / seconds, 1),
        ms_per_block=round(seconds / blocks * 1e3, 4),
    )
    return row


def test_translate_throughput(benchmark, context):
    rules = context.rule_store_excluding(TARGET).all_rules()
    program = context.build(TARGET, "arm", workload="test")
    starts, blocks = _blocks(program)
    stores = {
        mode: RuleStore.from_rules(rules, matcher=mode)
        for mode in ("hash", "indexed")
    }

    legs = {
        ("lookup", "legacy"): lambda: _lookup_leg(
            stores["hash"], blocks, LOOKUP_REPS),
        ("lookup", "indexed"): lambda: _lookup_leg(
            stores["indexed"], blocks, LOOKUP_REPS),
        ("translate", "legacy"): lambda: _translate_leg(
            program, starts, stores["hash"], "greedy", TRANSLATE_REPS),
        ("translate", "indexed"): lambda: _translate_leg(
            program, starts, stores["indexed"], "greedy", TRANSLATE_REPS),
        ("translate", "indexed_dp"): lambda: _translate_leg(
            program, starts, stores["indexed"], "dp", TRANSLATE_REPS),
    }

    def measure():
        for leg in legs.values():  # warm-up: memo caches, emitters
            leg()
        samples = {key: [] for key in legs}
        hits = {}
        for _ in range(ROUNDS):
            for key, leg in legs.items():
                seconds, leg_hits = leg()
                samples[key].append(seconds)
                hits[key] = leg_hits
        positions = sum(len(block) for block in blocks)
        lookup = {
            mode: _lookup_row(samples["lookup", mode],
                              hits["lookup", mode], positions, LOOKUP_REPS)
            for mode in ("legacy", "indexed")
        }
        translate = {
            mode: _translate_row(samples["translate", mode],
                                 len(starts) * TRANSLATE_REPS)
            for mode in ("legacy", "indexed", "indexed_dp")
        }
        return {
            "bench": "translate_throughput",
            "python": sys.version.split()[0],
            "cpus": len(os.sched_getaffinity(0)),
            "target": TARGET,
            "rules": len(rules),
            "blocks": len(starts),
            "guest_instructions": positions,
            "rounds": ROUNDS,
            "lookup_reps": LOOKUP_REPS,
            "translate_reps": TRANSLATE_REPS,
            "lookup": lookup,
            # Lookups/sec over lookups/sec: legacy over indexed seconds.
            "lookup_speedup": _ratio(samples["lookup", "legacy"],
                                     samples["lookup", "indexed"], 2),
            "translate": translate,
            "dp_vs_greedy": _ratio(samples["translate", "indexed_dp"],
                                   samples["translate", "indexed"], 3),
        }

    payload = run_once(benchmark, measure)
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"  wrote {OUTPUT}")
    for mode in ("legacy", "indexed"):
        row = payload["lookup"][mode]
        print(f"  {mode:>10s}: {row['lookups_per_second']:,} lookups/s "
              f"({row['ns_per_lookup']} ns/lookup)")
    print(f"  lookup speedup: {payload['lookup_speedup']}x "
          f"(gate: >= {MIN_LOOKUP_SPEEDUP}x)")
    for mode, row in payload["translate"].items():
        print(f"  {mode:>10s}: {row['blocks_per_second']} blocks/s "
              f"({row['ms_per_block']} ms/block)")
    print(f"  DP vs greedy: {payload['dp_vs_greedy']}x ms/block")

    # Both matchers hit the same positions (they are exact).
    assert payload["lookup"]["legacy"]["hit_positions"] == \
        payload["lookup"]["indexed"]["hit_positions"]
    assert payload["lookup"]["legacy"]["hit_positions"] > 0
    # The tentpole gate: the index at least doubles lookup throughput.
    assert payload["lookup_speedup"] >= MIN_LOOKUP_SPEEDUP
    benchmark.extra_info.update(
        lookup_speedup=payload["lookup_speedup"],
        indexed_blocks_per_second=(
            payload["translate"]["indexed"]["blocks_per_second"]
        ),
    )
