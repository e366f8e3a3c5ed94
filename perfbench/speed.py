"""The host's speed, sampled while a workload runs.

On a few cores of a shared host the speed can move between levels that
last from seconds to tens of seconds. On a 2-vCPU Xeon VM (2.0 GHz) a
fixed loop took from 1.0 to 2.3 times as long, with no steal time to show
for it, and process CPU time moved with the wall clock. So a run's raw time
says as much about the host as about the program, and no run length that
fits the benchmark's time averages the levels out.

A SIGALRM interval timer interrupts the measured process every PERIOD_S
of wall time, and the handler times a fixed piece of work: one sample.
The work has the three kinds of step the package's hot paths are made
of: integer arithmetic (interpreter dispatch), building small tuples,
strings and a dict (allocation, which also feels the cache), and numpy
calls on small arrays (call overhead, as in the OPA RK4 loop). Each kind
alone follows a slowdown of the host by its own amount. Over six figures
runs on that VM the run-to-run spread (IQR over median) of the mean pass
time was 0.131 as measured, 0.077 scaled by arithmetic and allocation
alone and 0.045 scaled by all three.

The garbage collector is off during a sample, so the program's heap does
not change its cost. The median sample of a pass gives the host's speed
during that pass. The pass time, less the time spent in samples, times
REFERENCE_S over that median, is the time the pass would take on a host
where one sample takes REFERENCE_S: the reference seconds the end-to-end
timings report. The program's work does not change the samples, so a
change that makes the program x% slower makes its reference time about
x% slower. The handler runs in the main thread between bytecodes, so a
sample never splits a numpy call; the samples cost about 2.5% of a pass.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# iterations of the arithmetic, allocation and numpy parts of one sample
ARITH, ALLOC, UFUNC = 4000, 1000, 250
# about the median sample on that VM, so reference and wall seconds are close
REFERENCE_S = 0.0012


class SpeedSampler:
    """Samples the host's speed from SIGALRM while it is entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._small = np.ones(64)
        self._out = np.empty(64)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        t0 = clock()
        s = 0
        for i in range(ARITH):
            s += i * i % 7
        objs = [(i, i * 0.5, str(i)) for i in range(ALLOC)]
        index = {o[2]: o for o in objs}
        for _ in range(UFUNC):
            np.add(self._small, 1.0, out=self._out)
        del objs, index
        self.samples.append(clock() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> SpeedSampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def reference_time(self, wall_s: float, mark: int) -> tuple[float, float]:
        """(reference seconds, speed factor) of a span of wall_s seconds that
        began at `mark`; every pass of a workload holds many samples."""
        taken = self.samples[mark:]
        factor = REFERENCE_S / statistics.median(taken)
        return (wall_s - sum(taken)) * factor, factor
