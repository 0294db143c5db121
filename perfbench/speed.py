"""Host speed, stolen time and worker memory, measured around each timed interval.

The benchmark runs on shared virtual machines whose speed drifts. On the
2-core machine it was tuned on, the CPU time of one fixed in-process
pass swung by a third from one ten-second stretch to the next, and for
minutes at a time the hypervisor withheld a share of both cores
(``steal`` in ``/proc/stat``), stretching a pooled pass to twice its
usual time. Medians over one run cannot remove a drift that lasts as
long as the run, so two runs of the same code disagreed by more than any
useful bound.

Two measurements correct for it:

- stolen time: the rise of the ``steal`` counters of the CPUs the
  benchmark may run on, shared out over the CPUs the interval kept busy;
- CPU speed: the time a fixed calibration loop takes, in CPU time, which
  counts neither waiting for a core nor being descheduled.

How the loop is timed depends on the interval, because a loop timed in
another process, which may run on the other core, did not follow the
drift that in-process work saw. An in-process pass is calibrated by
:func:`calibrate`, in the benchmark's own thread, just before and just
after it: over 15 s windows of repeated in-process passes, the median
pass time scaled this way spread by 0.05 IQR/median, against 0.19 with
a loop timed in another process and 0.21 unscaled. Pooled passes run on
every core, and set-ups last seconds and start a fresh interpreter;
there the median of a loop that a separate probe process samples all
through the interval followed the work better (Table 2 run medians
spread 0.02-0.05 IQR/median, against 0.10 with loops timed between
passes).

:func:`factor` turns both into reference seconds per host second: host
time minus stolen time, at the speed at which the loop takes
:data:`REFERENCE_S`. The loop touches no program code, so a faster or
slower program leaves the factor unchanged. The run record keeps the host
seconds and the factors beside the scaled metrics.

The probe process (:class:`Probe`, this file run as a script) never
holds the benchmark process's GIL, but it takes a core for about 1.5 ms
every 25 ms: when the pool keeps both cores of a 2-core machine busy,
that is about 3% of the machine, taken from the workers. At each sample
it also sums the peak resident set (``VmHWM``) of the benchmark
process's other live children, its pool workers. Fleet's pool starts and
reaps its workers inside every pass, and ``RUSAGE_CHILDREN`` keeps only
the largest child ever reaped, so this is how ``peak_rss_mb`` counts
every worker.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

#: CPU seconds the calibration loop takes at the reference speed (about
#: its median on the 2-core virtual machine the benchmark was tuned on).
REFERENCE_S = 0.0015
#: Calibration loops timed per :func:`calibrate`; their median is its result.
CALIBRATION_RUNS = 5
#: Seconds the probe sleeps between two samples. A rise in a worker's
#: memory in its last interval before it exits can be missed.
INTERVAL_S = 0.025
#: Share of an interval that stolen time may remove at most, so a
#: miscounted counter cannot drive a time to zero.
MAX_STOLEN = 0.9
#: Seconds to wait for the probe's first sample.
START_TIMEOUT_S = 30.0


def calibration_loop() -> int:
    """A fixed amount of pure-Python integer work."""
    total = 0
    for value in range(20_000):
        total += value * value % 7
    return total


def timed_loop() -> float:
    """CPU seconds one calibration loop takes in this thread."""
    start = time.thread_time()
    calibration_loop()
    return time.thread_time() - start


def calibrate() -> float:
    """Median CPU seconds the calibration loop takes in this thread now."""
    return statistics.median(timed_loop() for _ in range(CALIBRATION_RUNS))


def stolen_seconds(cpus) -> float:
    """Seconds the hypervisor has withheld from ``cpus`` since boot (0 off Linux)."""
    try:
        with open("/proc/stat") as stat:
            lines = stat.readlines()
    except OSError:
        return 0.0
    ticks = 0
    for line in lines:
        fields = line.split()
        if fields and fields[0].startswith("cpu") and fields[0][3:].isdigit():
            if int(fields[0][3:]) in cpus and len(fields) > 8:
                ticks += int(fields[8])
    return ticks / os.sysconf("SC_CLK_TCK")


def factor(start: "Mark", end: "Mark", busy_cpus: int, loop: float) -> float:
    """Reference seconds per host second over the interval.

    ``busy_cpus`` is how many CPUs the interval's work kept busy: the
    stolen time of all CPUs, divided by it, is what the work lost.
    ``loop`` is the calibration loop's time over the interval.
    """
    host = end.clock - start.clock
    if host <= 0:
        return 1.0
    stolen = min((end.stolen - start.stolen) / busy_cpus, MAX_STOLEN * host)
    return (host - stolen) / host * REFERENCE_S / loop


def children_peak_kb(parent: int, exclude: int) -> int:
    """Summed ``VmHWM`` (KiB) of ``parent``'s live children other than ``exclude``."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{parent}/task")
    except OSError:
        return 0
    for task in tasks:
        try:
            with open(f"/proc/{parent}/task/{task}/children") as handle:
                pids = [int(pid) for pid in handle.read().split()]
        except OSError:
            continue
        for pid in pids:
            if pid == exclude:
                continue
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
    return total


def probe_main(path: str, parent: int) -> None:
    """Append one ``<loop seconds> <workers KiB>`` line per sample until
    ``parent`` exits (or the probe is terminated)."""
    with open(path, "a") as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            loop = timed_loop()
            out.write(f"{loop!r} {children_peak_kb(parent, os.getpid())}\n")
            out.flush()


class Sample(NamedTuple):
    """One probe sample: calibration loop CPU seconds, workers' summed peak KiB."""

    loop: float
    workers_kb: int


class Mark(NamedTuple):
    """Where an interval starts or ends: probe sample count, stolen seconds, clock."""

    samples: int
    stolen: float
    clock: float


class Probe:
    """Runs the probe process and reads its samples and stolen time on demand.

    Use as a context manager; :meth:`mark` opens or closes an interval,
    :meth:`loop` and :meth:`workers_kb` summarise the samples in it.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.cpus = os.sched_getaffinity(0)
        self.samples: List[Sample] = []
        self._offset = 0
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Probe":
        self.path.write_bytes(b"")
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path), str(os.getpid())]
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.mark().samples:
            if self._process.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the probe process gave no sample")
            time.sleep(INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._process.terminate()
        self._process.wait()

    def _read(self) -> None:
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        complete = data.rfind(b"\n") + 1
        self._offset += complete
        for line in data[:complete].decode().splitlines():
            loop, workers_kb = line.split()
            self.samples.append(Sample(float(loop), int(workers_kb)))

    def mark(self) -> Mark:
        """The probe's state now."""
        self._read()
        return Mark(len(self.samples), stolen_seconds(self.cpus), time.perf_counter())

    def loop(self, start: Mark, end: Mark) -> float:
        """Median loop time sampled in the interval (the reference without samples)."""
        window = self.samples[start.samples:end.samples]
        return statistics.median(s.loop for s in window) if window else REFERENCE_S

    def workers_kb(self, start: Mark, end: Mark) -> int:
        """Largest summed peak KiB of the pool workers sampled in the interval."""
        return max((s.workers_kb for s in self.samples[start.samples:end.samples]), default=0)


if __name__ == "__main__":
    probe_main(sys.argv[1], int(sys.argv[2]))
