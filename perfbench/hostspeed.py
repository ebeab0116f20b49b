"""How fast the host runs while a workload is measured.

On a shared VM the same code can run 1.35-1.7x slower, in phases that last
from under a second to minutes, with the slowed process still charged all
of its CPU time (no steal time): other tenants load the physical cores, their caches
and memory. The workload's own numbers then move with the host, not with
the program.

:class:`HostProbe` times a fixed job between the workload's timed work, so
the probe sees the same host phases as the workload. The job has three
parts of about 2 ms each: a pure-Python loop (the tuner and the program's
compiler passes), small NumPy products (the surrogate) and a sweep over an
8 MiB array (the C kernels and ``cc``, whose working sets leave the core's
own caches). A workload's wall-clock metrics can then be scaled by
``REFERENCE_S / probe seconds``, into seconds of a host on which the job
takes ``REFERENCE_S``. The unscaled values and the probe's windows stay in the
run's detail record.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Job seconds on the reference host: the job's fastest-phase time on a
#: 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest with Python 3.11.
REFERENCE_S = 0.0056
#: Least seconds between two windows that are not forced. About 4 windows a
#: second (2-3 % of the pass) gave steadier scaled metrics than one window
#: of three jobs a second: the host switches phase within a second, and the
#: mean over more windows follows the share of time spent in each phase.
INTERVAL_S = 0.25

_SMALL = np.random.default_rng(12345).standard_normal((96, 96))
_LARGE = np.zeros(1 << 20)


def job() -> float:
    """Seconds of one fixed job."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    for _ in range(50):
        _SMALL @ _SMALL
    for _ in range(4):
        np.add(_LARGE, 1.0, out=_LARGE)
    return time.perf_counter() - t0


class HostProbe:
    """Probe windows of one pass."""

    def __init__(self) -> None:
        self.windows: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time one window (one job, about 6 ms) outside any timed region.
        Unless ``force``d, a window starts only ``INTERVAL_S`` after the
        last, so a pass's window count follows its length and not how many
        units a faster program fits into it."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.windows.append(job())
            self._last = time.perf_counter()

    def seconds(self) -> float:
        """Mean window time: the host's average speed over the pass."""
        return statistics.fmean(self.windows)

    def scale(self) -> float:
        """Factor that turns this pass's wall seconds into reference seconds."""
        return REFERENCE_S / self.seconds()
