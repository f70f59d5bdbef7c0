"""How fast the benchmark's CPU runs right now, relative to a fixed reference.

On the shared 2-vCPU machine this benchmark was defined on, one thread
running the same code sped up and slowed down by a fifth within
seconds and drifted by a third over minutes, with CPU time equal to
wall time (so not stolen time, but a slower core).  A probe thread
pinned to the benchmark's CPU times a fixed pure-Python kernel every
``interval_s`` in its own CPU time; the mean of ``KERNEL_REF_NS /
sample`` over a window is the speed during that window (1.0 = the
reference).  The gated metrics are reported in reference seconds: wall
seconds times that speed.  The same probe on the other vCPU did not
track the slowdown, so the process is pinned to one CPU while probed;
pool workers forked inside the window are unpinned again.

Under the GIL on one CPU, each kernel run stalls the benchmark's own
thread for its duration, so ``probe_ns`` gives the kernel wall time
inside a timed window and callers subtract it from that window.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from multiprocessing import util
from statistics import fmean
from time import perf_counter_ns, thread_time_ns

# median kernel time on the reference machine: 2 vCPUs of an Intel Xeon
# at 2.0 GHz, Python 3.11
KERNEL_REF_NS = 1_400_000


def kernel() -> int:
    """Fixed interpreter work of the kind domcore does: bit counts, shifts, dicts."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(3000):
        m = (i * 2654435761) & 0xFFFF
        c = m.bit_count()
        counts[c] = counts.get(c, 0) + 1
        acc ^= (m << (i & 7)) | c
    return acc


class SpeedProbe:
    """Context manager sampling the kernel in a thread on the benchmark's CPU."""

    def __init__(self, interval_s: float = 0.15):
        self.interval_s = interval_s
        # (perf_counter_ns at start, perf_counter_ns at end, kernel CPU ns)
        self.samples: list[tuple[int, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> "SpeedProbe":
        try:
            os.sched_setaffinity(0, {min(self._cpus)})
        except OSError:  # not allowed here: probe unpinned, speed tracks less closely
            pass
        util.register_after_fork(self, SpeedProbe._unpin)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._unpin()

    def _unpin(self) -> None:
        try:
            os.sched_setaffinity(0, self._cpus)
        except OSError:
            pass

    def _run(self) -> None:
        while True:
            wall = perf_counter_ns()
            start = thread_time_ns()
            kernel()
            cpu = thread_time_ns() - start
            self.samples.append((wall, perf_counter_ns(), cpu))
            if self._stop.wait(self.interval_s):
                return

    def speed_now(self, repeats: int = 3) -> float:
        """Speed from kernels run right now in the calling thread."""
        start = thread_time_ns()
        for _ in range(repeats):
            kernel()
        return KERNEL_REF_NS * repeats / (thread_time_ns() - start)

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean speed relative to the reference over [start_ns, end_ns].

        Falls back to every sample when the window holds none.
        """
        window = [ns for _, at, ns in self.samples if start_ns <= at <= end_ns]
        return fmean(KERNEL_REF_NS / ns for ns in window or [ns for _, _, ns in self.samples])

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Wall time of the kernel runs inside [start_ns, end_ns]."""
        total = 0
        i = bisect_right(self.samples, start_ns, key=lambda sample: sample[1])
        while i < len(self.samples) and self.samples[i][0] < end_ns:
            at, end, _ = self.samples[i]
            total += min(end, end_ns) - max(at, start_ns)
            i += 1
        return total
