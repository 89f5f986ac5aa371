"""Host-speed normalisation of the benchmark's timings.

On a shared host the CPU runs the same code up to twice as slowly for
stretches of seconds to minutes while neighbours load it.  Process CPU time
slows exactly as much as wall time, so it is no steadier, and the host has
no hardware counters.  Every timed interval is therefore paired with a
fixed reference loop run just before and just after it, and reported as

    seconds * REF_S / mean(loop before, loop after)

that is, in seconds on a host where the loop takes REF_S.  The loop walks a
512 x 512 table of ints the way the program walks its group tables; a pure
arithmetic loop slows less than the program does when neighbours load the
host.  The loop runs outside the timed interval and outside the program
under test.
"""

from __future__ import annotations

import time

REF_ITERS = 30_000
# the loop's time on the reference host when it is quiet (2 vCPUs,
# Python 3.11.7); a scale constant only, so figures read as seconds there
REF_S = 0.0020
_N = 512
_table: list[list[int]] = []


def reference() -> float:
    """Seconds for one run of the reference loop.  The first call builds
    the table, about 6 MB."""
    if not _table:
        _table.extend([(i * j * 7 + i + 3 * j) % _N for j in range(_N)] for i in range(_N))
    table = _table
    t0 = time.perf_counter()
    x = 1
    for i in range(REF_ITERS):
        x = table[x][(i * 97) & (_N - 1)]
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between loops of `before` and `after` seconds,
    at the reference speed."""
    return seconds * REF_S / ((before + after) / 2)


def low_mean(values: list[float]) -> float:
    """Mean of the lowest third of `values` (at least one).  Interference
    only adds time, and the scaling is most exact in the quiet moments."""
    low = sorted(values)[:max(1, len(values) // 3)]
    return sum(low) / len(low)

