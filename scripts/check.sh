#!/usr/bin/env bash
# Tier-1 gate: the fast checks every PR must keep green.
#
#   scripts/check.sh          # unit tests + lint + overhead gates
#   scripts/check.sh --bench  # also regenerate BENCH_learning.json
#   scripts/check.sh --slo    # also run the SLO burn-rate gate
#   scripts/check.sh --fleet  # also run the fleet chaos gate
#   scripts/check.sh --ingest # also run the corpus-ingestion gate
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Gates that ran and gates that did not, for the closing summary line.
ran=()
skipped=()

python -m pytest -x -q
ran+=(pytest)

# Chaos gate: an injected-fault learning run (worker crash + hang +
# torn cache write) must converge to the clean rule set, and the
# differential guard must quarantine a corrupted rule back to the
# baseline result.
python scripts/chaos_gate.py
ran+=(chaos)

# Service gate: a real repro-serve process plus two concurrent DBT
# clients over a unix socket must complete the gap -> learn ->
# hot-install cycle with online coverage within 1% of offline
# learning, and the trace must reconcile.
python scripts/service_gate.py
ran+=(service)

# Observability must stay cheap: bound the disabled-tracer cost
# (<= 2%) and the profiler-on cost (<= 3%) against sequential
# learning wall-clock.
python -m pytest benchmarks/test_learning_throughput.py::test_disabled_tracer_overhead \
    benchmarks/test_learning_throughput.py::test_profiler_on_overhead \
    -x -q --benchmark-disable
ran+=(overhead)

if command -v ruff >/dev/null 2>&1; then
    ruff check src
    ran+=(lint)
elif python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src
    ran+=(lint)
else
    skipped+=("lint (ruff not installed)")
fi

if [[ "${1:-}" == "--bench" ]]; then
    python -m pytest benchmarks/test_learning_throughput.py \
        benchmarks/test_translate_throughput.py -x -q
    ran+=(bench)
else
    skipped+=("bench (no --bench)")
fi

# SLO gate: boot repro-serve with slo.toml + the sampling profiler,
# drive the gap -> learn -> hot-install workload, require valid
# Prometheus exposition and no burn-rate breach.
if [[ "${1:-}" == "--slo" ]]; then
    python scripts/slo_gate.py
    ran+=(slo)
else
    skipped+=("slo (no --slo)")
fi

# Fleet gate: a 3-shard repro-serve fleet behind the repro-fleet
# coordinator survives two mid-run shard kills (one restart from an
# empty repo) with coverage parity, monotone generations, and no
# duplicate hot-installs across a dozen concurrent clients.
if [[ "${1:-}" == "--fleet" ]]; then
    python scripts/fleet_gate.py
    ran+=(fleet)
else
    skipped+=("fleet (no --fleet)")
fi

# Ingest gate: a fixed-seed corpus stream must teach >= 15 novel
# verified rules beyond the benchsuite, reproduce its counters exactly
# from fresh state, skip >= 30% of a warm rerun through the dedup
# layer, and reconcile its trace against the embedded IngestSummary.
if [[ "${1:-}" == "--ingest" ]]; then
    python scripts/ingest_gate.py
    ran+=(ingest)
else
    skipped+=("ingest (no --ingest)")
fi

# One closing line naming every gate that passed and every gate that
# did not run, so a skipped lint cannot read as a clean pass.
summary="check.sh: passed: ${ran[*]}"
if (( ${#skipped[@]} )); then
    printf -v joined '%s, ' "${skipped[@]}"
    summary+="; skipped: ${joined%, }"
fi
echo "$summary"
