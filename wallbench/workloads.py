"""The four workloads: set-up, warm-up and one timed pass each.

Every workload times two legs per pass on the same inputs:

* ``main_s`` — the path under study;
* ``base_s`` — the same inputs with that path's mechanism bypassed
  (warm cache, no rules, or an already-learned server).

A pass starts from the same state every time: fresh guest images (the
rule translator memoizes TCG counterfactuals on the program object),
fresh rule stores, caches and servers, and a collected and frozen heap,
so the collector scans only what the pass itself allocates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.dbt.engine import DBTEngine
from repro.learning import pipeline
from repro.learning.cache import VerificationCache
from repro.learning.serialize import rule_digest
from repro.learning.store import RuleStore
from repro.minic import compile as minic_compile
from repro.minic import interp
from repro.service.client import RuleServiceClient
from speed import Stopwatch

MASK = 0xFFFFFFFF
LEARN_OPT, LEARN_STYLE = 2, "llvm"
STYLES = ("llvm", "gcc")
#: Corpus stream the corpus workloads draw their programs from.  It is
#: fixed, and the benchmark seed orders it: drawing different programs
#: per seed moved the pass wall by 20% between seeds, which would hide
#: any change smaller than that.
POOL_SEED = 0
EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text()
)


class Checks:
    """Output checks counted as operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def fresh(program):
    """A new guest image sharing code but none of the memo state."""
    return dataclasses.replace(program)


def seeded_order(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def compile_arm(source: str, opt: int = LEARN_OPT,
                style: str = LEARN_STYLE):
    return minic_compile.compile_source(source, "arm", opt, style)


def no_split() -> None:
    pass


def learning_builds(names, split) -> dict:
    """Table 1 inputs: (ARM guest, x86 host) per benchmark, -O2 LLVM.
    ``split()`` runs after each benchmark (see ``Workload.setup``)."""
    builds = {}
    for name in names:
        split()
        source = benchmark_source(name, "ref")
        builds[name] = (
            minic_compile.compile_source(source, "arm", LEARN_OPT,
                                         LEARN_STYLE),
            minic_compile.compile_source(source, "x86", LEARN_OPT,
                                         LEARN_STYLE),
        )
    return builds


def ruleset_digest(outcomes: dict) -> tuple[int, str]:
    digests = sorted(
        rule_digest(rule)
        for outcome in outcomes.values() for rule in outcome.rules
    )
    return len(digests), hashlib.sha256(
        "\n".join(digests).encode()
    ).hexdigest()[:16]


class Leg:
    """One stretch-wise timed leg.  ``split()`` ends a stretch between
    units of work and re-samples the machine's speed (``speed.py``);
    under tracing each stretch is one root span, so the sampling lies
    outside every span, as it lies outside the timed wall."""

    def __init__(self, recorder, root: str) -> None:
        self.recorder, self.root = recorder, root
        self.watch = Stopwatch()
        self._span = self._begin()

    def _begin(self):
        return self.recorder.begin(self.root) \
            if self.recorder is not None else None

    def _end(self) -> None:
        if self.recorder is not None:
            self.recorder.end(self._span)

    def split(self) -> None:
        self._end()
        self.watch.split()
        self._span = self._begin()

    def stop(self) -> None:
        self._end()
        self.watch.stop()

    def splitting_tick(self, stretch_s: float):
        """A per-dispatch ``DBTEngine.tick`` that splits the leg at the
        first dispatch (the clock is read every 256th) at least
        ``stretch_s`` after the last split, so one long guest run spans
        many stretches.  Untraced legs only: under tracing the root
        span cannot end inside the engine's own span."""
        clock = time.perf_counter
        count = 0
        due = clock() + stretch_s

        def tick(engine) -> None:
            nonlocal count, due
            count += 1
            if count % 256 == 0 and clock() >= due:
                self.split()
                due = clock() + stretch_s
        return tick


class Legs:
    """One pass's time per leg: at reference speed (``scaled``) and
    plain wall-clock (``wall``)."""

    def __init__(self) -> None:
        self.scaled: dict = {}
        self.wall: dict = {}

    @contextlib.contextmanager
    def timed(self, recorder, root: str, key: str):
        """Time one part of leg ``key`` (parts add up) from a
        collected, frozen heap.  Yields the ``Leg``."""
        gc.collect()
        gc.freeze()
        leg = Leg(recorder, root)
        try:
            yield leg
        finally:
            leg.stop()
            gc.unfreeze()
            self.scaled[key] = self.scaled.get(key, 0.0) + leg.watch.scaled
            self.wall[key] = self.wall.get(key, 0.0) + leg.watch.wall

    def result(self, checks: "Checks", counts: dict,
               samples: dict | None = None) -> dict:
        return {"legs": self.scaled, "walls": self.wall,
                "checks": checks.as_dict(), "counts": counts,
                "samples": samples or {}}


def engine_counts(engine) -> list:
    stats = engine.last_run
    return [stats.translated_blocks, stats.perf.dispatches,
            stats.dynamic_host_instructions,
            round(stats.perf.exec_cycles, 6),
            sum(stats.hit_rule_lengths.values())]


class Workload:
    name = ""
    #: Wall of one timed pass at the commit that introduced the
    #: benchmark (2 CPUs); sets how many passes a time budget buys.
    PASS_SECONDS = 1.0
    #: Set-ups per worker; ``setup_s`` is the median of all of them
    #: (each worker sets up, so a run sets up at least twice).
    SETUP_REPEATS = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, split=no_split) -> None:
        """Builds the inputs; calls ``split()`` between units of work,
        where the set-up time may re-sample the machine's speed."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, recorder) -> dict:
        """Returns ``{"legs", "walls", "checks", "counts", "samples"}``
        (``Legs.result``)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Learn(Workload):
    """Cold then warm learning of the 12 benchsuite programs."""

    name = "learn"
    PASS_SECONDS = 0.9
    SETUP_REPEATS = 4

    def setup(self, split=no_split) -> None:
        self.builds = learning_builds(
            seeded_order(BENCHMARK_NAMES, self.seed), split
        )

    def warmup(self) -> None:
        self.run_pass(None)

    def _images(self) -> dict:
        return {name: (fresh(guest), fresh(host))
                for name, (guest, host) in self.builds.items()}

    def run_pass(self, recorder) -> dict:
        cache_dir = self.workdir / "verify-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        legs = Legs()
        checks = Checks()
        counts = {}
        for key, root in (("main_s", "bench.main"),
                          ("base_s", "bench.base")):
            images = self._images()
            with legs.timed(recorder, root, key):
                cache = VerificationCache.at_dir(cache_dir)
                outcomes = pipeline.learn_corpus(images, cache=cache)
            rules, digest = ruleset_digest(outcomes)
            checks.check(rules == EXPECTED["learn_rules"],
                         f"{key}: {rules} rules, expected "
                         f"{EXPECTED['learn_rules']}")
            reports = [outcome.report for outcome in outcomes.values()]
            counts[key] = {
                "digest": digest,
                "rules": rules,
                "verify_calls": sum(r.verify_calls for r in reports),
                "cache_hits": sum(r.cache_hits for r in reports),
                "cache_misses": sum(r.cache_misses for r in reports),
                "sequences": sum(r.total_sequences for r in reports),
            }
        checks.check(counts["main_s"]["digest"] == counts["base_s"]["digest"],
                     "warm pass learned a different rule set")
        return legs.result(checks, counts)


class RefExec(Workload):
    """``ref`` inputs of mcf, gcc and libquantum, qemu and rules mode,
    with leave-one-out rule stores."""

    name = "ref-exec"
    PASS_SECONDS = 7.8
    PROGRAMS = ("mcf", "gcc", "libquantum")
    #: Seconds of guest execution per stretch between speed samples.
    STRETCH_S = 0.2

    def setup(self, split=no_split) -> None:
        outcomes = pipeline.learn_corpus(
            learning_builds(BENCHMARK_NAMES, split))
        split()
        self.rules = {name: pipeline.leave_one_out(outcomes, name)
                      for name in self.PROGRAMS}
        self.guests = {name: compile_arm(benchmark_source(name, "ref"))
                       for name in self.PROGRAMS}
        self.small = {name: compile_arm(benchmark_source(name, "test"))
                      for name in self.PROGRAMS}
        self.order = seeded_order(
            [(name, mode) for name in self.PROGRAMS
             for mode in ("qemu", "rules")], self.seed
        )

    def _store(self, name: str, mode: str):
        return RuleStore.from_rules(self.rules[name]) \
            if mode == "rules" else None

    def warmup(self) -> None:
        for name, mode in self.order:
            DBTEngine(fresh(self.small[name]), mode,
                      rule_store=self._store(name, mode)).run()

    def run_pass(self, recorder) -> dict:
        legs = Legs()
        checks = Checks()
        counts = {}
        for name, mode in self.order:
            image, store = fresh(self.guests[name]), self._store(name, mode)
            key, root = ("main_s", "bench.main") if mode == "rules" \
                else ("base_s", "bench.base")
            with legs.timed(recorder, root, key) as timed_leg:
                engine = DBTEngine(image, mode, rule_store=store)
                if recorder is None:
                    engine.tick = timed_leg.splitting_tick(self.STRETCH_S)
                value = engine.run().return_value & MASK
            expected = EXPECTED["ref"][name]
            checks.check(value == expected,
                         f"{name}/{mode}: returned {value}, "
                         f"expected {expected}")
            counts[f"{name}/{mode}"] = engine_counts(engine)
        return legs.result(checks, counts)


def corpus_sources(seed: int, per_region: int) -> list[tuple[str, str]]:
    """The first ``per_region`` programs of each grammar region in
    corpus stream ``seed``, as (name, MiniC source)."""
    return [
        (f"{region}/{index}", generate_program(config, seed, region, index))
        for region, config in REGIONS.items()
        for index in range(per_region)
    ]


def oracle_builds(sources, styles, split) -> list[tuple]:
    """(name, ARM -O2 build, interpreter value) per source and style."""
    builds = []
    for name, source in sources:
        for style in styles:
            split()
            program = compile_arm(source, 2, style)
            builds.append((f"{name}/{style}", program,
                           interp.run_tac(program.tac) & MASK))
    return builds


class CorpusTranslate(Workload):
    """A fixed corpus draw over every region and both codegen styles,
    in seeded order, each build run once on a fresh engine and image."""

    name = "corpus-translate"
    PASS_SECONDS = 4.5
    PER_REGION = 2
    WARMUP_BUILDS = 22
    #: Builds (about 0.1 s) per stretch between speed samples.
    SPLIT_BUILDS = 2

    def setup(self, split=no_split) -> None:
        outcomes = pipeline.learn_corpus(
            learning_builds(BENCHMARK_NAMES, split))
        self.rules = [rule for outcome in outcomes.values()
                      for rule in outcome.rules]
        self.builds = seeded_order(
            oracle_builds(corpus_sources(POOL_SEED, self.PER_REGION),
                          STYLES, split),
            self.seed,
        )

    def warmup(self) -> None:
        self._pass(None, self.builds[:self.WARMUP_BUILDS])

    def run_pass(self, recorder) -> dict:
        return self._pass(recorder, self.builds)

    def _pass(self, recorder, builds) -> dict:
        legs = Legs()
        checks = Checks()
        counts = {}
        for mode, key, root in (("rules", "main_s", "bench.main"),
                                ("qemu", "base_s", "bench.base")):
            store = RuleStore.from_rules(self.rules) \
                if mode == "rules" else None
            images = [fresh(program) for _, program, _ in builds]
            totals = [0] * 5
            with legs.timed(recorder, root, key) as timed_leg:
                for number, ((name, _, expected), image) in \
                        enumerate(zip(builds, images), 1):
                    engine = DBTEngine(image, mode, rule_store=store)
                    value = engine.run().return_value & MASK
                    checks.check(value == expected,
                                 f"{name}/{mode}: returned {value}, "
                                 f"interpreter {expected}")
                    totals = [a + b for a, b in
                              zip(totals, engine_counts(engine))]
                    if number % self.SPLIT_BUILDS == 0 \
                            and number < len(builds):
                        timed_leg.split()
            counts[mode] = [round(value, 6) for value in totals]
        return legs.result(checks, counts)


class GapJourney(Workload):
    """One closed-loop client streams corpus programs, in seeded
    order, through a fresh ``repro-serve`` (no auto-learn, no cache)."""

    name = "gap-journey"
    PASS_SECONDS = 8.0
    ROUNDS = 50
    WARMUP_ROUNDS = 6
    #: Rounds (about 0.1 s) per stretch between speed samples.
    SPLIT_ROUNDS = 1
    STARTUP_SECONDS = 60

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.server: subprocess.Popen | None = None
        self.servers_started = 0

    def _stream(self) -> list[tuple[str, str, str]]:
        """(name, source, style) per round: the regions in turn, styles
        alternating, in the order the seed gives."""
        regions = list(REGIONS)
        stream = []
        for i in range(self.ROUNDS):
            region = regions[i % len(regions)]
            index = i // len(regions)
            stream.append((f"{region}/{index}",
                           generate_program(REGIONS[region], POOL_SEED,
                                            region, index),
                           STYLES[i % 2]))
        return seeded_order(stream, self.seed)

    def setup(self, split=no_split) -> None:
        self.rounds = [
            oracle_builds([(name, source)], (style,), split)[0]
            for name, source, style in self._stream()
        ]
        split()
        self._start_server()

    def _start_server(self) -> None:
        self._stop_server()
        self.servers_started += 1
        where = self.workdir / f"server{self.servers_started}"
        where.mkdir(parents=True)
        # Relative to the checkout root (the worker's cwd), so the
        # unix socket path stays short wherever the checkout lives.
        self.socket = os.path.relpath(where / "rules.sock")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--repo", str(where / "repo"), "--socket", self.socket,
             "--corpus", ",".join(BENCHMARK_NAMES),
             "--no-auto-learn", "--no-cache"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.STARTUP_SECONDS
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"repro-serve exited with {self.server.returncode}"
                )
            if os.path.exists(self.socket):
                try:
                    with RuleServiceClient(socket_path=self.socket) as c:
                        c.ping()
                    return
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro-serve did not come up")
            time.sleep(0.02)

    def _stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None or server.poll() is not None:
            return
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    def close(self) -> None:
        self._stop_server()

    def warmup(self) -> None:
        self._journey(None, self.rounds[:self.WARMUP_ROUNDS], Checks(),
                      Legs(), "main_s", "bench.main", [], [])

    def run_pass(self, recorder) -> dict:
        self._start_server()
        legs = Legs()
        checks = Checks()
        counts = {}
        latencies: list[float] = []
        for key, root in (("main_s", "bench.main"),
                          ("base_s", "bench.base")):
            per_round: list = []
            self._journey(recorder, self.rounds, checks, legs, key, root,
                          latencies if key == "main_s" else [], per_round)
            counts[key] = per_round
        return legs.result(checks, counts, {"install_ms": latencies})

    def _journey(self, recorder, rounds, checks, legs, key, root,
                 latencies, per_round) -> None:
        """A round syncs, runs one program with gap capture, reports
        the gaps, flushes, then syncs again, which hot-installs what
        was learned.  Install latency runs from the report to the
        finished sync.

        On the journey (``main_s``) every program starts from an empty
        rule store, so it reports its whole gaps and the server
        verifies the same candidates whatever the order of the stream;
        the order only decides which round pays for them.  The replay
        (``base_s``) is a client that holds every rule already learned.
        """
        shared = RuleStore() if key == "base_s" else None

        def engine_for(image, **kwargs):
            store = shared if shared is not None else RuleStore()
            return DBTEngine(image, "rules", rule_store=store, **kwargs)

        images = [fresh(program) for _, program, _ in rounds]
        with RuleServiceClient(socket_path=self.socket,
                               timeout=120.0) as client:
            # Catch up with the server before the stream starts.
            client.sync(engine_for(fresh(rounds[0][1])))
            with legs.timed(recorder, root, key) as timed_leg:
                for number, ((name, _, expected), image) in \
                        enumerate(zip(rounds, images), 1):
                    engine = engine_for(image, gap_sink=client.recorder)
                    client.sync(engine)
                    value = engine.run().return_value & MASK
                    reported = time.perf_counter()
                    gaps = client.report_gaps()
                    client.flush()
                    synced = client.sync(engine)
                    latencies.append(
                        (time.perf_counter() - reported) * 1000.0
                    )
                    checks.check(value == expected,
                                 f"{name}: returned {value}, "
                                 f"interpreter {expected}")
                    per_round.append([name, gaps, synced.rules_installed,
                                      synced.blocks_invalidated]
                                     + engine_counts(engine))
                    if number % self.SPLIT_ROUNDS == 0 \
                            and number < len(rounds):
                        timed_leg.split()
            per_round.sort()


WORKLOADS = {cls.name: cls
             for cls in (Learn, RefExec, CorpusTranslate, GapJourney)}
