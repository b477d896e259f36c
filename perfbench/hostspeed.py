"""How fast the shared machine runs this process, from a fixed kernel.

On a virtual machine shared with other tenants the same operation runs
up to twice as slow for stretches of seconds to minutes, often for all
of a 30 s run, while the process keeps its CPU: the time is lost to
contended cores and caches, not to waiting, so CPU time slows as much
as wall time.  A fixed calibration kernel timed between the operations
of a run slows nearly in step with them.

The kernel is interpreter work of the kind acgw does most: hex ids
through dicts, sets, sorting and string splitting, then an integer loop.
It imports nothing from acgw, so no change to the library changes it.
:class:`HostSpeed` converts a measured time into *reference seconds*:
the time it would have taken when the kernel takes :data:`REF_S`.
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_left, bisect_right

#: kernel time on the recorded machine at its quiet times (see README):
#: a measured time ``t`` is reported as ``t * REF_S / kernel time``
REF_S = 0.0013
#: least time between two samples of the kernel inside a timed loop
GAP_S = 0.05
#: most samples taken at once, after a long operation
CATCH_UP = 8
#: samples this close to an operation's start or end set its speed
WINDOW_S = 1.0

_RNG = random.Random(20241001)
_IDS = [f"{_RNG.getrandbits(40):010x}" for _ in range(900)]


def kernel() -> int:
    """A fixed piece of interpreter work, about 1.3 ms when quiet: hex
    ids through dicts, sets, sorting and string splitting, then an
    integer loop."""
    index = {x: k for k, x in enumerate(_IDS)}
    halves = {x[:5] for x in _IDS} | {x[5:] for x in _IDS}
    pairs = sorted((x[::-1], index[x]) for x in _IDS if x[:5] not in halves or index[x] % 3)
    text = " ".join(f"{a}->{b}" for a, b in pairs)
    legs = dict(item.split("->") for item in text.split())
    acc = 0
    for k in range(8000):
        acc += (k * 7) % 13
    return len(legs) + acc


class HostSpeed:
    """Kernel samples over time, and the speed they give an interval."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the kernel's second of two back-to-back calls: the first
        reloads what the operation before it pushed out of the caches,
        so the sample tracks the machine, not the program's footprint."""
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def tick(self) -> None:
        """One sample per :data:`GAP_S` since the last one, at most
        :data:`CATCH_UP`: after a long operation, several samples, so
        that the window around it never rests on one or two."""
        owed = CATCH_UP
        if self.at:
            owed = min(int((time.perf_counter() - self.at[-1]) / GAP_S), CATCH_UP)
        for _ in range(owed):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the median kernel time of the samples within
        :data:`WINDOW_S` of ``[start, end]``: multiply a time measured in
        that interval by it to get reference seconds."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no kernel sample near [{start}, {end}]")
        return REF_S / statistics.median(self.took[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
