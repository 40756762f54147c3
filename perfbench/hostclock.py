"""The benchmark's host clock: process CPU time with the machine's speed
drift divided out.

On a shared machine the same work costs up to a quarter more or less CPU
time from one phase of some seconds to the next, as neighbours contend
for the core and its caches; no run is long enough to average that away.
So the clock runs a fixed reference loop every ``every_s`` host seconds
(between two commits, outside every timed interval) and scales each
stretch of the program's CPU time by ``NOMINAL_REF_S`` over the reference
time measured around it.  A host second is then a CPU second at the
machine speed at which the reference loop takes ``NOMINAL_REF_S``.  A
change to the program changes the program's CPU time and not the
reference loop's, so it shows in full.

Raw CPU time stays available: :meth:`HostClock.now` is CPU seconds with
the reference loops taken out, and :meth:`HostClock.span` converts an
interval of it to reference-speed seconds.
"""

from __future__ import annotations

import bisect
from time import process_time

import numpy as np

#: reference-loop CPU seconds that define the host clock's unit
NOMINAL_REF_S = 0.0007
#: reference timings on each side of a stretch whose mean sets its speed.
#: The core flips between a fast and a contended state within
#: milliseconds, so one loop sees one state; the mean of the eight loops
#: around a stretch (about 80 ms) tracks the mix the program met.  Wider
#: windows track it worse: repetitions of one workload varied by 3% of
#: their mean host time at 4, by 4-5% at 50 and by 7-17% unscaled.
NEIGHBOURS = 4


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed interpreter work of the program's kind: small objects, dict
    updates, tuple hashing, generator resumes and tiny numpy arithmetic."""
    table: dict = {}
    acc = 0

    def items():
        for i in range(1200):
            yield _Item(i & 63, i)

    for item in items():
        table[item.key] = table.get(item.key, 0) + item.value
        acc ^= hash((item.key, item.value, "ref"))
    vec = np.zeros(3)
    for _ in range(60):
        vec = vec * 0.5 + 1.0
    return acc + int(vec.sum())


class HostClock:
    """CPU seconds of the program alone, and their reference-speed span."""

    def __init__(self, every_s: float | None = 0.01):
        self.every_s = every_s
        self.paused = 0.0                 # CPU s spent in reference loops
        self.marks: list[float] = []      # program CPU s at each loop
        self.ref_s: list[float] = []      # CPU s each loop took
        self._factors: list[float] | None = None
        self._at: list[float] = []        # reference-speed s at each mark

    def now(self) -> float:
        """Process CPU seconds, not counting the reference loops."""
        return process_time() - self.paused

    def calibrate(self) -> None:
        """Time one reference loop now, outside the program's CPU time."""
        if self.every_s is None:
            return
        started = process_time()
        reference_loop()
        took = process_time() - started
        self.ref_s.append(took)
        self.marks.append(started - self.paused)
        self.paused += took
        self._factors = None

    def tick(self) -> None:
        """Calibrate if ``every_s`` program seconds passed since the last."""
        if self.every_s is not None and (
                not self.marks or self.now() - self.marks[-1] >= self.every_s):
            self.calibrate()

    def _build(self) -> None:
        n = len(self.ref_s)
        prefix = [0.0]
        for ref in self.ref_s:
            prefix.append(prefix[-1] + ref)
        self._factors = []
        for k in range(n):
            lo, hi = max(0, k + 1 - NEIGHBOURS), min(n, k + 1 + NEIGHBOURS)
            self._factors.append(
                NOMINAL_REF_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        self._at = [0.0]
        for k in range(1, n):
            self._at.append(self._at[-1] + (self.marks[k] - self.marks[k - 1])
                            * self._factors[k - 1])

    def _scaled(self, t: float) -> float:
        k = max(bisect.bisect_right(self.marks, t) - 1, 0)
        return self._at[k] + (t - self.marks[k]) * self._factors[k]

    def span(self, start: float, end: float) -> float:
        """Reference-speed seconds between two readings of :meth:`now`."""
        if not self.marks:
            return end - start
        if self._factors is None:
            self._build()
        return self._scaled(end) - self._scaled(start)

    def speed(self) -> float:
        """Mean machine speed against nominal (above 1: faster)."""
        if not self.ref_s:
            return 1.0
        return NOMINAL_REF_S * len(self.ref_s) / sum(self.ref_s)
