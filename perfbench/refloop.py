"""The reference loop that measures the host's momentary speed.

Kept apart so that a fresh interpreter can time it around `import ncfps`
without importing anything else first.
"""

import time
from fractions import Fraction

# End-to-end times are scaled to the speed at which one loop takes 2 ms.
REF_NOMINAL_S = 0.002


def reference_loop():
    """A fixed pure-Python load of the kind the library does: exact rational
    arithmetic and dict inserts keyed by tuples.  Returns its duration."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        seen[(i, i % 3)] = acc
    return time.perf_counter() - t0
