"""Fixed pure-Python reference load: a yardstick for the speed of a CPU.

On a shared machine the speed of one CPU changes by up to 2x within
seconds as other tenants come and go, and the CPUs of one machine do
not change together.  The benchmark therefore runs this load in a
thread of its own, on the same single CPU as the measured child
process.  The scheduler interleaves the two in slices of milliseconds,
so whatever slows the child slows the load too, and the load's rate
over the child's lifetime converts the child's CPU time to CPU time on
a CPU that runs the load at NOMINAL_UNITS_PER_S.

Not every kind of work slows alike.  Fitting log(child CPU time) to
log(1 / load speed) over a 2x range of slowdowns, a Random-heavy load
gave slopes of 0.70 to 0.86 on the altrank workloads (1 is exact), while
row elimination on small integers (like the p-adic kernel and the
survey's ranks) gave 0.82 to 0.93 and arithmetic on 40-digit integers
(like exact Smith forms) 0.95 to 1.14.  So this load mixes those two in
equal time.  It uses only the standard library, so no change to altrank
can move it.
"""

from __future__ import annotations

import threading
import time

# units per CPU second of the load on a quiet 2-core Xeon sandbox
NOMINAL_UNITS_PER_S = 2000.0


def _small_elimination() -> int:
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(8)] for i in range(8)]
    for t in range(8):
        for i in range(t + 1, 8):
            f = rows[i][t]
            if f:
                rows[i] = [(a * 3 - f * b) % 257 for a, b in zip(rows[i], rows[t])]
    return rows[7][7]


def _big_arithmetic() -> int:
    x = 10**40 + 12345
    acc = 0
    for i in range(200):
        acc = (acc + x * (i + 7)) // 3 + x % (i + 11)
    return acc


def unit() -> int:
    """About half a millisecond of work, half of each kind."""
    return sum(_small_elimination() + _big_arithmetic() for _ in range(4))


class ReferenceLoad(threading.Thread):
    """Runs units of the load until stopped.  `progress` holds (units
    done, CPU seconds of this thread) as of the last finished unit."""

    def __init__(self):
        super().__init__(name="reference-load", daemon=True)
        self.progress = (0, 0.0)
        self._halt = threading.Event()

    def run(self):
        done = 0
        self.progress = (done, time.thread_time())
        while not self._halt.is_set():
            unit()
            done += 1
            self.progress = (done, time.thread_time())

    def warm(self, units: int = 20) -> None:
        """Start the thread and wait until it has done `units` units."""
        self.start()
        while self.progress[0] < units:
            time.sleep(0.01)

    def stop(self) -> None:
        self._halt.set()
        self.join()

    @staticmethod
    def speed(before, after) -> float:
        """Measured over nominal rate of the load between two `progress`
        samples: 1 on a quiet CPU, 0.5 on one running at half speed."""
        units = after[0] - before[0]
        seconds = after[1] - before[1]
        if units < 1 or seconds <= 0:
            raise RuntimeError("reference load made no progress")
        return units / seconds / NOMINAL_UNITS_PER_S
