"""Machine-speed reference for the timed legs.

On a shared host the same pure-Python code runs up to half again as
slow in phases that last from a fraction of a second to tens of
seconds, as other tenants come and go.  Medians over a run cannot
remove a phase that outlasts the run.  So every timed stretch is
bracketed by a fixed reference kernel, and its wall is scaled by
``REFERENCE_S`` over the kernel's time (the mean of the samples taken
just before and just after the stretch).  The result is seconds at
reference speed: the speed at which one kernel call takes
``REFERENCE_S``.

The kernel is the benchmark's own code and touches nothing of the
program, so no change to the program can move it; a slower program
reads slower by the same factor at any machine speed.  It imitates the
interpreter-bound work the system does (a dispatch loop over small
objects, list and dict traffic) so that both slow down alike.
"""

from __future__ import annotations

import time

#: Kernel time, in seconds, that defines reference speed.
REFERENCE_S = 0.003
#: Kernel calls per speed sample; the sample is their median.
SAMPLE_CALLS = 3


class _Insn:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: int, a: int, b: int) -> None:
        self.op, self.a, self.b = op, a, b


_PROGRAM = [_Insn(i % 6, i % 8, (i * 5) % 8) for i in range(64)]


def kernel(rounds: int = 200) -> int:
    """A fixed register-machine loop: about 13,000 dispatches."""
    regs = [1] * 8
    memory: dict[int, int] = {}
    total = 0
    for _ in range(rounds):
        for insn in _PROGRAM:
            op = insn.op
            if op == 0:
                regs[insn.a] = (regs[insn.a] + regs[insn.b]) & 0xFFFFFFFF
            elif op == 1:
                regs[insn.a] = (regs[insn.a] - regs[insn.b]) & 0xFFFFFFFF
            elif op == 2:
                regs[insn.a] = (regs[insn.a] * 3 + 1) & 0xFFFFFFFF
            elif op == 3:
                regs[insn.a] = memory.get(regs[insn.b] & 255, 0)
            elif op == 4:
                memory[regs[insn.a] & 255] = regs[insn.b]
            else:
                total += regs[insn.a] & 1
        cells = sorted(memory.items())
        total += len(cells)
    return total


def sample() -> float:
    """Seconds one kernel call takes now (median of a few)."""
    times = []
    for _ in range(SAMPLE_CALLS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class Stopwatch:
    """Times a leg as stretches, each scaled to reference speed.

    The speed is sampled when the stopwatch starts, at every
    ``split()`` and at ``stop()``; the sampling itself is not timed.
    ``wall`` is the plain wall-clock total, ``scaled`` the total at
    reference speed.
    """

    def __init__(self, sampler=sample, clock=time.perf_counter) -> None:
        self.sampler = sampler
        self.clock = clock
        self.wall = 0.0
        self.scaled = 0.0
        self._before = sampler()
        self._start = clock()

    def _close(self) -> None:
        wall = self.clock() - self._start
        after = self.sampler()
        self.wall += wall
        self.scaled += wall * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after

    def split(self) -> None:
        self._close()
        self._start = self.clock()

    def stop(self) -> None:
        self._close()
