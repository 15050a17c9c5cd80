"""A speed probe: how fast were this box's CPUs while the work ran?

The box this benchmark was sized on is a 2-vCPU VM whose vCPUs each
switch, independently and within a second, between full speed and about
half of it, and stay mostly-slow or mostly-fast for minutes to hours.
CPU time equals wall time while it happens, so it is not steal and no
clock of the guest can see it.  As measured, ten runs of one workload
spread by a quarter to a half of their median, which no bound worth
gating on survives.  See "Times at reference speed" in ``README.md``.

A sampler thread times a fixed slice of pure-Python work every few
milliseconds, in its own CPU time, where the work is: on the CPU the
main thread last ran on while the main thread is busy, on each CPU in
turn while it waits (for serve workers, which are busy on all of them).
A slice that takes twice the reference slice time means work got done at
half the rate; the work of a stretch — its time "at reference speed" —
is its length times the mean rate while it ran.  Nothing is pinned but
the sampler itself.  It holds the interpreter lock for one slice in
every period (1-2 % of the time), the same on every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from time import perf_counter, sleep, thread_time

#: Seconds between two slices, and the interpreter work in one slice.
PERIOD_S = 0.02
ROUNDS = 1000
#: The slice time that counts as speed 1.  A constant of the benchmark,
#: not a measurement: it only fixes the unit ("seconds on a CPU that
#: runs the slice in 200 us", about an undisturbed vCPU of the sizing
#: box), so on another box every time shifts by one factor and
#: comparisons on that box are unaffected.  Calibrating it when a run
#: starts would put back the drift the probe exists to take out: a run
#: that starts in a slow spell would call that spell speed 1.
REFERENCE_SLICE_S = 200e-6


def _slice(rounds: int = ROUNDS) -> int:
    """Dictionary, list and integer work — the interpreter's daily
    bread, like the program under test."""
    table: dict = {}
    recent: list = []
    total = 0
    for index in range(rounds):
        slot = index & 255
        table[slot] = table.get(slot, 0) + index
        recent.append((index, slot))
        if len(recent) > 128:
            recent = recent[64:]
        total += len(recent)
    return total


class Sampler(threading.Thread):
    """Times one slice per period until stopped.  Start it from the main
    thread."""

    def __init__(self):
        super().__init__(name="bench-speed-sampler", daemon=True)
        self.cpus = sorted(os.sched_getaffinity(0))
        self._times: list = []          # perf_counter of each sample
        self._slices: list = []         # its slice seconds
        self._stop_requested = threading.Event()
        main = threading.main_thread()
        self._main_clock = time.pthread_getcpuclockid(main.ident)
        self._main_stat = f"/proc/self/task/{main.native_id}/stat"

    def _main_cpu(self) -> int:
        """The CPU the main thread last ran on (field 39 of its stat)."""
        with open(self._main_stat) as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])

    def run(self) -> None:
        turn = 0
        spent, seen = time.clock_gettime(self._main_clock), perf_counter()
        while not self._stop_requested.is_set():
            now_spent, now = (time.clock_gettime(self._main_clock),
                              perf_counter())
            busy = now_spent - spent > 0.5 * (now - seen)
            spent, seen = now_spent, now
            if busy:
                cpu = self._main_cpu()
            else:
                cpu = self.cpus[turn % len(self.cpus)]
                turn += 1
            os.sched_setaffinity(0, {cpu})          # this thread only
            # Thread CPU time: waiting for the CPU or for the interpreter
            # lock must not read as a slow CPU.
            start = thread_time()
            _slice()
            seconds = thread_time() - start
            # Slices first: a reader never finds a time without its slice.
            self._slices.append(seconds)
            self._times.append(perf_counter())
            sleep(PERIOD_S)

    def stop(self) -> None:
        self._stop_requested.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the CPUs ran the work of
        ``[start, end]`` (``perf_counter`` clock).  Work gets done at the
        rate reference slice / slice, so the work of a stretch is its
        length times the mean of that rate, and the slowdown the inverse
        of that mean (a mean of slice times would weigh the slow
        moments of a mixed stretch too much).  The nearest sample when
        none fell inside."""
        times, slices = self._times, self._slices
        if not times:
            return 1.0
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        window = slices[low:high] or [slices[min(low, len(slices) - 1)]]
        return 1.0 / statistics.fmean(REFERENCE_SLICE_S / seconds
                                      for seconds in window)
