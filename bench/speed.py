"""How fast the machine runs right now, from a fixed calibration kernel.

The benchmark was built on a shared 2-core machine where the same Python code
ran at full speed most of the time but 1.5x to 1.85x slower in spells lasting
from one second to minutes, in CPU time as much as in wall time.  A fixed
piece of exact-rational arithmetic, which wazz does not run and no change to
wazz can speed up, slows down with it, though more: fitting wazz op times
against kernel times over 90 s of slow and fast spells gave a slope of 0.55
to 0.7.  The benchmark times the kernel before every pair and divides each
op's wall time by the machine's slowness around it,
1 + SLOPE * (kernel time / KERNEL_REF_S - 1), with the kernel's median time
over the nearby samples.  Raw and scaled times are both printed.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time at full speed on the 2-core Xeon the benchmark was built on.
KERNEL_REF_S = 0.0007
SLOPE = 0.6
WINDOW = 4  # samples on each side of an op that set its slowness

_ROWS = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 7 + 1)
                    for j in range(8)) for i in range(8))


def kernel_seconds():
    """Wall time of a fixed batch of rational dot products."""
    start = perf_counter()
    for r in range(4):
        v = [Fraction(k + r, 9 - k) for k in range(8)]
        for row in _ROWS:
            sum(a * b for a, b in zip(row, v))
    return perf_counter() - start


class Speedometer:
    """Kernel samples taken between ops, in order."""

    def __init__(self):
        self.samples = []

    def tick(self):
        self.samples.append(kernel_seconds())

    def slowness(self, index):
        """How many times slower than full speed the machine ran around
        sample `index`."""
        window = self.samples[max(0, index - WINDOW + 1):index + WINDOW + 1]
        return _slowness(statistics.median(window))

    def overall(self):
        return _slowness(statistics.median(self.samples))


def _slowness(kernel_s):
    return 1 + SLOPE * (kernel_s / KERNEL_REF_S - 1)
