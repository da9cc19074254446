"""Which public functions make up each layer, and the per-layer
metrics the traced run derives from their spans and counters."""

from __future__ import annotations

from spans import root_wall, self_times


def _pairs(rec, result, args):
    rec.count("learning.pairs", len(result.pairs))


def _mappings(rec, result, args):
    _mappings_list, failure = result
    if failure is None:
        rec.count("learning.candidates")


def _verdict(rec, outcome, args):
    rec.count("learning.verify_calls", outcome.calls)
    if outcome.rule is not None:
        rec.count("learning.rules")


def _solver(rec, result, args):
    rec.count("solver.checks")


def _cache_get(rec, outcome, args):
    rec.count("learning.cache_hits" if outcome is not None
              else "learning.cache_misses")


def _lookup(rec, result, args):
    rec.count("store.lookups")
    if result:
        rec.count("store.hits")


def _cover(rec, result, args):
    rec.count("ruletrans.rule_hits", len(result.hit_rules))


def _emit(rec, result, args):
    rec.count("emitter.emits")


def _block(rec, result, args):
    rec.count("frontend.blocks")


def _compiled(rec, result, args):
    rec.count("minic.builds")


def _ran(rec, result, args):
    stats = args[0].last_run
    rec.count("engine.dispatches", stats.perf.dispatches)
    rec.count("engine.host_insns", stats.dynamic_host_instructions)
    rec.count("engine.exec_cycles", stats.perf.exec_cycles)


def _installed(rec, result, args):
    rec.count("engine.blocks_invalidated", result[1])


def _synced(rec, result, args):
    rec.count("client.rules_installed", result.rules_installed)


#: (function path, span name, counter hook).  Each path names the
#: attribute the caller resolves at call time, so a function imported
#: by name into another module is wrapped in that module.
TARGETS = (
    ("repro.minic.compile:compile_source", "minic.compile", _compiled),
    ("repro.minic.interp:run_tac", "minic.interp", None),
    ("repro.learning.pipeline:extract_pairs", "learning.extract", _pairs),
    ("repro.learning.pipeline:analyze_pair", "learning.paramize", None),
    ("repro.learning.pipeline:generate_mappings", "learning.paramize",
     _mappings),
    ("repro.learning.pipeline:candidate_digest", "learning.paramize", None),
    ("repro.learning.pipeline:resolve_candidate", "learning.verify",
     _verdict),
    ("repro.learning.verify:check_equal", "solver.check", _solver),
    ("repro.learning.cache:VerificationCache.get", "learning.cache",
     _cache_get),
    ("repro.learning.cache:VerificationCache.put", "learning.cache", None),
    ("repro.learning.cache:VerificationCache.save", "learning.cache", None),
    ("repro.learning.store:RuleStore.match_at", "store.match", _lookup),
    ("repro.learning.store:RuleStore.matches_at", "store.match", _lookup),
    ("repro.dbt.engine:translate_block_with_rules", "ruletrans.cover",
     _cover),
    ("repro.dbt.ruletrans:instantiate_host", "emitter.emit", _emit),
    ("repro.dbt.engine:translate_block", "frontend.tcg", _block),
    ("repro.dbt.ruletrans:discover_block", "frontend.tcg", _block),
    ("repro.dbt.ruletrans:translate_instruction", "frontend.tcg", None),
    ("repro.dbt.codegen:lower_tcg_op", "codegen.lower", None),
    ("repro.dbt.codegen:peephole", "codegen.peephole", None),
    ("repro.dbt.codegen:allocate", "codegen.regalloc", None),
    ("repro.dbt.fastexec:compile_block", "fastexec.compile", None),
    ("repro.dbt.engine:DBTEngine.run", "engine.exec", _ran),
    ("repro.dbt.engine:DBTEngine.hot_install", "engine.hot_install",
     _installed),
    ("repro.service.client:RuleServiceClient.report_gaps", "client.report",
     None),
    ("repro.service.client:RuleServiceClient.flush", "client.flush", None),
    ("repro.service.client:RuleServiceClient.sync", "client.sync", _synced),
)

#: Span names that belong to the benchmark itself, not to a layer:
#: their self time is the trace's unattributed time.
ROOTS = ("bench.main", "bench.base")

#: Per-layer metrics: name -> (unit, kind, source).  ``self`` metrics
#: are a span name's self time per timed pass (``ms`` ones scaled),
#: ``count`` metrics a counter per pass, ``setup`` metrics a span's
#: self time per set-up (the compiler only runs in set-up).
PER_LAYER = {
    "minic.compile_s": ("s", "setup", "minic.compile"),
    "minic.builds": ("count", "setup_count", "minic.builds"),
    "learning.extract_s": ("s", "self", "learning.extract"),
    "learning.pairs": ("count", "count", "learning.pairs"),
    "learning.paramize_s": ("s", "self", "learning.paramize"),
    "learning.candidates": ("count", "count", "learning.candidates"),
    "learning.verify_s": ("s", "self", "learning.verify"),
    "learning.verify_calls": ("count", "count", "learning.verify_calls"),
    "learning.rules": ("count", "count", "learning.rules"),
    "solver.check_s": ("s", "self", "solver.check"),
    "solver.checks": ("count", "count", "solver.checks"),
    "learning.cache_s": ("s", "self", "learning.cache"),
    "learning.cache_hits": ("count", "count", "learning.cache_hits"),
    "learning.cache_misses": ("count", "count", "learning.cache_misses"),
    "store.match_s": ("s", "self", "store.match"),
    "store.lookups": ("count", "count", "store.lookups"),
    "store.hits": ("count", "count", "store.hits"),
    "ruletrans.cover_s": ("s", "self", "ruletrans.cover"),
    "ruletrans.rule_hits": ("count", "count", "ruletrans.rule_hits"),
    "emitter.emit_s": ("s", "self", "emitter.emit"),
    "emitter.emits": ("count", "count", "emitter.emits"),
    "frontend.tcg_s": ("s", "self", "frontend.tcg"),
    "frontend.blocks": ("count", "count", "frontend.blocks"),
    "codegen.lower_s": ("s", "self", "codegen.lower"),
    "codegen.peephole_s": ("s", "self", "codegen.peephole"),
    "codegen.regalloc_s": ("s", "self", "codegen.regalloc"),
    "fastexec.compile_s": ("s", "self", "fastexec.compile"),
    "engine.exec_s": ("s", "self", "engine.exec"),
    "engine.dispatches": ("count", "count", "engine.dispatches"),
    "engine.host_insns": ("count", "count", "engine.host_insns"),
    "engine.exec_cycles": ("cycles", "count", "engine.exec_cycles"),
    "client.report_ms": ("ms", "self", "client.report"),
    "client.flush_ms": ("ms", "self", "client.flush"),
    "client.sync_ms": ("ms", "self", "client.sync"),
    "engine.hot_install_ms": ("ms", "self", "engine.hot_install"),
    "client.rules_installed": ("count", "count", "client.rules_installed"),
    "engine.blocks_invalidated": ("count", "count",
                                  "engine.blocks_invalidated"),
}


def pass_layers(spans, counts) -> dict:
    """One traced pass -> {"self": {...}, "counts": {...}, "wall",
    "unattributed"}."""
    selves = self_times(spans)
    return {
        "self": {name: t for name, t in selves.items()
                 if name not in ROOTS},
        "counts": counts,
        "wall": root_wall(spans),
        "unattributed": sum(selves.get(name, 0.0) for name in ROOTS),
    }
