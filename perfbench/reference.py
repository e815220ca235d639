"""A fixed reference task, timed just before every op.

On a shared 2-vCPU virtual machine the speed of the whole machine drifts by
up to ~1.7x over seconds to minutes, and raw op times drift with it: the p75
of ten 25-second runs of one workload spread by 0.26-0.39 of its median.
The time of an op relative to the time of this task, run just before it,
does not drift that way.  A 150-second fanin_scale series, cut into 50-op
windows, gave a median spread of 0.22 raw and 0.03 scaled.

The task mixes interpreter work (a dict and float loop) and numpy (sort,
cumsum), as ops do.  It calls nothing of the program, so a change to the
program never changes its time; only the machine's speed does.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# The task's typical time on the 2-vCPU Xeon the benchmark was tuned on
# (16-27 ms as the machine drifts).  Scaled op times are op times at this
# reference speed, so they read as ms on that machine.
REF_MS = 20.0


def task() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(60_000):
        table[i % 997] = total
        total += (i * 0.5) % 7.0
    values = np.random.default_rng(7).random(100_000)
    for _ in range(5):
        np.sort(values)
        total += float(np.cumsum(values)[-1])
    return total


def time_ns() -> int:
    """Wall time of one run of the task."""
    t0 = perf_counter_ns()
    task()
    return perf_counter_ns() - t0


def scale_ms(op_ns: int, ref_ns: int) -> float:
    """An op's time in ms at the reference speed, given the task's time just before it."""
    return op_ns / ref_ns * REF_MS
