"""Machine-speed calibration of the benchmark's timings.

On the 2-vCPU VM the benchmark was built on, the speed of a vCPU swings
by up to 1.6x for seconds to minutes at a time as other tenants load the
host. CPU time equals wall time throughout, so this is not preemption,
and pinning or longer runs do not remove it: medians of raw wall time
over 20 s runs spread by 10-40% from run to run. Dividing each timing by
the time of a fixed kernel, sampled on the same vCPU during the same
interval, leaves a spread of a few percent.

A time in reference seconds is the seconds it would take on a machine
where one iteration of the kernel takes the kernel's reference time.
"""

from __future__ import annotations

import math
import signal
import time


def _numpy_kernel(iterations: int) -> float:
    # small Python and numpy work of the kind pfwigner does: 4x4 products,
    # max-abs, atan2 and float formatting
    import numpy as np  # here, so that the set-up child can sample before numpy loads

    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    acc = 0.0
    for i in range(iterations):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 1e-3 * (i % 7)
        acc += float(np.abs(m.T @ metric @ m - metric).max()) + math.atan2(i, 7.0)
        acc += len(format(acc, ".17g"))
    return acc


def _python_kernel(iterations: int) -> float:
    acc = 0.0
    for i in range(iterations):
        acc += math.atan2(i, 7.0) + len(format(acc, ".17g"))
    return acc


# name -> (kernel, reference seconds per iteration, iterations per sample)
KERNELS = {
    "numpy": (_numpy_kernel, 8e-6, 60),  # about 0.8 ms per sample
    "python": (_python_kernel, 0.9e-6, 200),  # about 0.25 ms per sample
}


class SpeedProbe:
    """Samples a kernel every `period_s` from SIGALRM while a timed run goes on.

    Inside `with probe:`, `spent` is the time the samples took, to be
    subtracted from the run's wall time. On exit one more sample is taken,
    so a run shorter than the period still has one. A sample's time is
    inversely proportional to the machine's speed at that moment, so the
    mean over evenly spaced samples scales the run's time to reference
    seconds.
    """

    def __init__(self, kernel: str = "numpy", period_s: float = 0.05):
        self._kernel, self._ref_iter_s, self._iterations = KERNELS[kernel]
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel(self._iterations)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.spent = sum(self.samples)
        self._sample()

    def reference_seconds(self, seconds: float) -> float:
        iteration_s = sum(self.samples) / len(self.samples) / self._iterations
        return seconds * self._ref_iter_s / iteration_s
