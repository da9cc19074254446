"""Tests of the benchmark's own arithmetic, inputs and accounting.

Run from the root of a checkout: ``python3 -m pytest wallbench/tests``.
"""

import sys
import types

import pytest

import run
from spans import SpanRecorder, instrumented, root_wall, self_times
from speed import REFERENCE_S, Stopwatch, kernel
from stats import percentile, tail_percentile
from workloads import Checks, GapJourney, corpus_sources, seeded_order


# -- span self time -----------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == {"root": 6.0, "a": 2.0, "c": 1.0, "b": 1.0}
    assert root_wall(spans) == 10.0


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a", 3.0, 6.0, 0],   # overlaps the first child by 1
        ["b", 9.0, 12.0, 0],  # runs past the parent's end
    ]
    selves = self_times(spans)
    assert selves["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selves["a"] == pytest.approx(6.0)


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("root"):        # 0 .. 5
        with recorder.span("layer"):   # 1 .. 4
            with recorder.span("inner"):  # 2 .. 3
                pass
    spans, counts = recorder.take()
    assert [s[3] for s in spans] == [-1, 0, 1]
    assert self_times(spans) == {"root": 2.0, "layer": 2.0, "inner": 1.0}
    assert counts == {} and recorder.spans == []


def test_instrumented_wraps_and_restores():
    module = types.ModuleType("wallbench_fake_layer")
    module.work = lambda n: list(range(n))
    sys.modules[module.__name__] = module
    original = module.work
    recorder = SpanRecorder()
    try:
        hook = (lambda rec, result, args: rec.count("items", len(result)))
        with instrumented(recorder, [(f"{module.__name__}:work", "fake",
                                      hook)]):
            assert module.work(3) == [0, 1, 2]
            module.work(2)
        assert module.work is original
    finally:
        del sys.modules[module.__name__]
    spans, counts = recorder.take()
    assert [s[0] for s in spans] == ["fake", "fake"]
    assert counts == {"items": 5}


# -- reference speed ------------------------------------------------------------

def test_stopwatch_scales_each_stretch_by_the_speed_around_it():
    # Kernel samples: 1x reference before, 2x after the first stretch
    # (machine twice as slow), 2x after the second.
    samples = iter([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S])
    ticks = iter([0.0, 3.0, 3.0, 7.0])
    watch = Stopwatch(sampler=lambda: next(samples),
                      clock=lambda: next(ticks))
    watch.split()   # 3 s at 1.5x the reference kernel time -> 2 s
    watch.stop()    # 4 s at 2x -> 2 s
    assert watch.wall == pytest.approx(7.0)
    assert watch.scaled == pytest.approx(4.0)


def test_kernel_is_fixed_work():
    assert kernel(50) == kernel(50)


# -- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([5.0], 90) == 5.0
    assert percentile(list(range(1, 1001)), 99.9) == 999


# -- seeded inputs --------------------------------------------------------------

def test_same_seed_same_inputs():
    assert corpus_sources(7, 2) == corpus_sources(7, 2)
    assert seeded_order(range(12), 3) == seeded_order(range(12), 3)
    journey = GapJourney(5, None)._stream()
    assert journey == GapJourney(5, None)._stream()
    assert len(journey) == GapJourney.ROUNDS


def test_other_seed_other_inputs():
    assert corpus_sources(7, 2) != corpus_sources(8, 2)
    assert seeded_order(range(12), 3) != seeded_order(range(12), 4)
    one, other = GapJourney(1, None)._stream(), GapJourney(2, None)._stream()
    assert one != other and sorted(one) == sorted(other)
    names = [name for name, _ in corpus_sources(1, 2)]
    assert len(names) == len(set(names)) == 22


# -- failure counting -------------------------------------------------------------

def test_checks_count_every_operation():
    checks = Checks()
    checks.check(True, "fine")
    checks.check(False, "mcf/rules: returned 1, expected 2")
    assert checks.as_dict() == {
        "attempted": 2, "failed": 1,
        "failures": ["mcf/rules: returned 1, expected 2"],
    }


def _worker(hash_seed, *passes):
    return {"hash_seed": hash_seed, "passes": list(passes)}


def _pass(attempted, failed, counts):
    return {"checks": {"attempted": attempted, "failed": failed,
                       "failures": ["x"] * failed},
            "counts": counts}


def test_count_checks_sums_outputs_and_determinism():
    workers = [_worker("1", _pass(6, 0, {"a": 1}), _pass(6, 1, {"a": 1})),
               _worker("2", _pass(6, 0, {"a": 1}))]
    # 18 output checks + one determinism check per pass.
    assert run.count_checks(workers, "passes") == (21, 1, ["x"])


def test_count_checks_fails_a_pass_whose_counts_differ():
    workers = [_worker("1", _pass(2, 0, {"blocks": 44})),
               _worker("2", _pass(2, 0, {"blocks": 45}))]
    attempted, failed, failures = run.count_checks(workers, "passes")
    assert (attempted, failed) == (6, 1)
    assert failures == ["counts differ: hash seed 2 pass 0"]
