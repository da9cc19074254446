"""Outside-in span tracing of the system's layers.

The benchmark never edits the program: it wraps the public functions
each layer exposes, at the attribute its caller looks them up through,
for the duration of a traced region.  Every wrapped call records one
span (name, start, end, parent); counters record the work the call did.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory span and counter log for one traced region."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_index]`` (-1: a root span).
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over and clear everything recorded so far."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the union of its direct
    children's intervals, each clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def root_wall(spans) -> float:
    """Summed duration of the root spans (the traced wall)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def _resolve(path: str):
    """``"pkg.mod:Attr.sub"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _wrap(recorder: SpanRecorder, name: str, func, after):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, result, args)
        return result
    return traced


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder, targets):
    """Wrap every ``(path, span name, after)`` target for the block.

    ``after(recorder, result, args)`` (optional) records counters from
    a call's arguments and result.  Originals are restored on exit.
    """
    saved = []
    try:
        for path, name, after in targets:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
