"""Host-speed calibration for the CPU-bound workloads.

On a shared host the speed of one CPU drifts, for seconds to minutes
at a time, by a factor of up to two; a rate in plain host seconds then
says more about the neighbours than about b92sim. ``calibrate`` times a
fixed piece of work that does not touch b92sim, in the mix that the
simulator's hot paths are made of: Python method calls, integer
arithmetic, list and dict updates, numpy calls on 1024-element arrays,
and loads that miss the CPU caches. In 200 s runs on a 2-vCPU VM, the
host's slow phases slowed the cache-missing loads about as much as the
simulator, and the small numpy calls less; the mix followed the
host's speed better, on Ideal and on Physical sessions, than any one
part alone. The in-process workloads run it around every session and
report their times at the reference speed, the speed at which one
``calibrate`` takes ``REFERENCE_S`` seconds:

    seconds_at_reference = seconds * REFERENCE_S / median(calibrations)

A change to b92sim moves these figures exactly as it moves the plain
ones; only the host's drift cancels. ``REFERENCE_S`` is a fixed
constant (about the median on a 2-vCPU Xeon VM with Python 3.11) and
must not change between the commits being compared.
"""
from __future__ import annotations

import functools
import statistics
import time

REFERENCE_S = 0.022


class _Counter:
    def __init__(self) -> None:
        self.value = 0

    def step(self, v: int) -> int:
        self.value = (self.value + v) % 1_000_003
        return self.value


def _python_work(n: int = 50_000) -> int:
    c = _Counter()
    total = 0
    for i in range(n):
        total += c.step(i)
    return total


def _table_work(n: int = 30_000) -> int:
    table = {}
    counts = [0] * 64
    for i in range(n):
        k = i & 63
        counts[k] += i
        table[k] = table.get(k, 0) ^ i
    return len(table)


def _numpy_work(n: int = 150) -> int:
    import numpy as np  # here, so that the orchestrator need not load numpy

    a = np.arange(1024, dtype=np.int64)
    total = 0
    for _ in range(n):
        total += int(((a ^ (a >> 1)) & 1).sum())
        a = np.roll(a, 1)
    return total


@functools.cache
def _chain() -> tuple[int, ...]:
    """A random cycle through every index of a 2**17-element table
    (Sattolo's shuffle), built once, outside the timed work."""
    import random

    table = list(range(1 << 17))
    rng = random.Random(92)
    for k in range(len(table) - 1, 0, -1):
        j = rng.randrange(k)
        table[k], table[j] = table[j], table[k]
    return tuple(table)


def _chase_work(chain: tuple[int, ...], n: int = 20_000) -> int:
    """Follow the cycle: each step is a load that misses the CPU caches,
    as the simulator's larger working set does."""
    j = 0
    for _ in range(n):
        j = chain[j]
    return j


def calibrate() -> float:
    """Seconds one pass of the fixed work takes now."""
    chain = _chain()
    t0 = time.perf_counter()
    _python_work()
    _table_work()
    _numpy_work()
    _chase_work(chain)
    return time.perf_counter() - t0


def speed_factor(calibrations: list[float]) -> float:
    """Multiply a duration by this to get it at the reference speed."""
    return REFERENCE_S / statistics.median(calibrations)
