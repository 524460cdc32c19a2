"""Machine speed probe: a fixed kernel of the benchmark's own, timed
between requests, that turns wall times into reference-speed times.

The shared machine this benchmark was built on runs the same Python code
up to 1.5x slower for stretches of seconds to minutes, with CPU time
moving with wall time, so a 35-s run cannot average the phases out.  The
kernel below does the same kind of work as the program (exact rational
arithmetic and dict updates on small ints) and shares no code with it.
A request's reference time is its wall time times REF_NS over the
median kernel time of the requests around it: a slow phase stretches
both alike and cancels, a slower program does not.  `run.py` pins itself
and its children to one CPU so that the kernel measures the CPU the
request ran on.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# the kernel's typical time on the reference machine (see README.md);
# a constant, so that reference times stay comparable between runs
REF_NS = 1_400_000
WINDOW = 4  # neighbours on each side in the running median


def kernel() -> Fraction:
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(i * i + 1, 3 * i + 2) * Fraction(2 * i - 1, i + 7)
    counts: dict = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return x


def probe_ns() -> int:
    """The kernel's wall time, with the collector off so that the size of
    the heap the program leaves behind does not enter it."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def factors(probes: list) -> list:
    """REF_NS over the running median of the probes, one per probe."""
    out = []
    for i in range(len(probes)):
        near = probes[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(REF_NS / statistics.median(near))
    return out
