"""Speed probes: how fast each CPU runs right now, sampled beside the work.

On a shared virtual machine the speed of a vCPU changes while a run goes
on, with what other guests run on the same physical core.  On the 2-vCPU
machine the benchmark was written on, a fixed loop of exact arithmetic
took from 0.6 to 1.05 times its median CPU time, in spells of a few
seconds, and the two vCPUs changed speed independently.  CPU time alone
therefore moved by 15-30% from run to run for the same work.

A probe is a thread pinned to one CPU that wakes every ``PERIOD`` seconds
and times ``KERNEL_REPS`` runs of a small, fixed kernel of the kind of work
the program does (Fraction arithmetic, lists, dicts) in its own thread CPU
time.  The benchmark pins its main thread to the probe's CPU, so probe and
program share a vCPU and its speed.  A span of CPU time ``c`` is then
normalised as ``c * REFERENCE_S / k``, averaged over the probe samples
``k`` taken during the span: the CPU seconds the work would take on a CPU
on which the kernel takes ``REFERENCE_S`` seconds.  The probe threads
take about 5% of a CPU, which is not counted as the program's.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD = 0.02
KERNEL_REPS = 2
REFERENCE_S = 1e-3


def kernel() -> list:
    """Fixed exact Gauss-Jordan elimination and dictionary updates."""
    n = 5
    a = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    counts: dict[int, int] = {}
    for i in range(300):
        counts[(i * 31) % 97] = counts.get((i * 31) % 97, 0) + i
    return a


def kernel_seconds() -> float:
    """CPU time of one probe sample, taken in the calling thread."""
    start = time.thread_time()
    for _ in range(KERNEL_REPS):
        kernel()
    return time.thread_time() - start


class Probe(threading.Thread):
    """Samples the speed of one CPU until ``stop``."""

    def __init__(self, cpu: int):
        super().__init__(name=f"speed-probe-{cpu}", daemon=True)
        self.cpu = cpu
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.scales: list[float] = []  # REFERENCE_S / kernel CPU time
        self._stop_event = threading.Event()
        self._started = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        self._started.set()
        while not self._stop_event.wait(PERIOD):
            scale = REFERENCE_S / kernel_seconds()
            self.scales.append(scale)
            self.times.append(time.perf_counter())

    def begin(self) -> None:
        self.start()
        self._started.wait()

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def cpu_seconds(self) -> float:
        return time.clock_gettime(time.pthread_getcpuclockid(self.ident))

    def scale(self, t0: float, t1: float) -> float:
        """Mean scale of the samples taken in [t0, t1]; for a span too short
        to hold one, the sample nearest to its middle."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.fmean(self.scales[lo:hi])
        if not self.times:
            raise RuntimeError(f"probe on CPU {self.cpu} has no sample yet")
        mid = (t0 + t1) / 2
        i = bisect.bisect_left(self.times, mid)
        near = [j for j in (i - 1, i) if 0 <= j < len(self.times)]
        return self.scales[min(near, key=lambda j: abs(self.times[j] - mid))]


_forked_cpus: set[int] | None = None  # affinity of processes forked while probing


def _unpin_child() -> None:
    if _forked_cpus is not None:
        os.sched_setaffinity(0, _forked_cpus)


os.register_at_fork(after_in_child=_unpin_child)


class Probes:
    """One probe per CPU this process may use.  While probes run, the main
    thread is pinned to the first (``home``); worker processes it forks
    are unpinned again, so that they spread over every CPU.  Interpreters
    started by ``subprocess`` do not pass through ``os.fork`` and stay on
    ``home``."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = self.cpus[0]
        self.probes = {cpu: Probe(cpu) for cpu in self.cpus}

    def __enter__(self) -> "Probes":
        global _forked_cpus
        _forked_cpus = set(self.cpus)
        os.sched_setaffinity(0, {self.home})
        for probe in self.probes.values():
            probe.begin()
        # Every probe holds a sample before anything is timed.
        while not all(p.times for p in self.probes.values()):
            time.sleep(PERIOD)
        return self

    def __exit__(self, *exc: object) -> None:
        global _forked_cpus
        for probe in self.probes.values():
            probe.stop()
        os.sched_setaffinity(0, set(self.cpus))
        _forked_cpus = None

    def own_cpu(self) -> float:
        """CPU time of this process apart from the probe threads."""
        return time.process_time() - sum(p.cpu_seconds() for p in self.probes.values())

    def normalise(self, t0: float, t1: float, own: float, children: float) -> float:
        """Normalised CPU seconds of a call in [t0, t1] that used ``own``
        seconds on the home CPU and ``children`` seconds in worker
        processes, which are scaled by the mean over every CPU."""
        total = own * self.probes[self.home].scale(t0, t1)
        if children:
            spread = statistics.fmean(p.scale(t0, t1) for p in self.probes.values())
            total += children * spread
        return total
