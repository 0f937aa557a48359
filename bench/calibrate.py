"""Machine-speed calibration for the benchmark's timing metrics.

A shared virtual machine changes speed under load from other tenants: on
the 2-vCPU machine NOTES.md describes, the same operation took up to 1.7x
longer from one 15-second stretch to the next, and a whole run can fall
into a slow or a fast stretch.  No statistic inside one run removes that.
So the loop runs a fixed pure-Python kernel between its operations, and
scales each operation's wall time by how long the kernel took around it:
a time at *reference speed* is a wall time multiplied by
REFERENCE_S / (the kernel's wall time), the kernel's time being the mean
of the probes just before and just after the operation.

The kernel is interpreted Python like symbreak and calls nothing of it,
so a change to the program moves the scaled times exactly as it moves the
wall times, while a change in the machine's speed moves kernel and
operation together and cancels.  Over 150 s of one 3x3 `compare` after
another, the wall time per 15 s stretch varied by 1.67x (max/min) and
the scaled time by 1.10x.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# the unit of the scaled times: a time at reference speed is the time the
# operation takes while probe() reads REFERENCE_S.  On the machine above,
# under CPython 3.11, probe() read 2.5 to 4.2 ms as its speed drifted
REFERENCE_S = 0.0030

# the kernel reads a table of small integers, as a lex-leader check reads
# a permuted word, and creates no object: every integer it makes is one of
# the interpreter's cached small ones.  So neither the collector nor the
# state of the program's heap moves its time
_TABLE = tuple(tuple((7 * a + 3 * b) % 5 for b in range(64)) for a in range(64))
_WORD = _TABLE[11]
_ROUNDS = 12


def _kernel() -> float:
    table, word, acc = _TABLE, _WORD, 0
    start = perf_counter()
    for _ in range(_ROUNDS):
        for row in table:
            for b, v in enumerate(row):
                if v != word[b]:
                    acc = (acc + v) & 255
    return perf_counter() - start


def probe(runs: int = 3) -> float:
    """Mean wall time of `runs` runs of the kernel.  The mean, not the
    median: an operation is slowed by every stall in its stretch of time,
    and so is the mean."""
    return statistics.fmean(_kernel() for _ in range(runs))


class Clock:
    """Scales wall times to reference speed with the probes around them.

    Call `scale` with the wall times of the operations run since the last
    call; it probes once and returns those times at reference speed.  The
    probe ending one batch starts the next.  A probe lasts at least
    PROBE_SHARE of the batch before it, so that a long operation is set
    against the machine's speed over a longer stretch: one run of the
    kernel varies by about 10% from the next even on a quiet machine.
    """

    PROBE_SHARE = 0.04

    def __init__(self) -> None:
        self.before = probe()

    def scale(self, wall_times: list[float]) -> list[float]:
        after = probe(max(3, math.ceil(self.PROBE_SHARE * sum(wall_times) / REFERENCE_S)))
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return [t * factor for t in wall_times]
