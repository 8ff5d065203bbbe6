"""Reference kernels: fixed code of the benchmark's own that measures CPU speed.

On a shared machine the speed the CPU gives one process drifts by a third
within seconds, while the process's CPU time keeps pace with its wall time:
the CPU slows, the scheduler does not.  A kernel timed while a job runs
measures that speed.  `Sampler` times one kernel call before the job, one
every 0.1 s of the job from a timer signal, and one after it, and
`scaled` turns the job's wall time into seconds at the kernel's nominal
speed.  Kernel calls are timed in thread CPU time, so a kernel call that
waits for a core (as beside the two scan workers) still measures speed.
The kernels never call perfdist: a change to perfdist moves the job's
time and leaves the kernel's time alone.

"interp" is interpreter-bound, like the rn layer and rho on 100- to
250-bit integers; "bigint" is multi-limb arithmetic, like Lucas-Lehmer at
p near 10^4.  The two kinds slow by different amounts under contention,
so each workload is scaled by the kind that matches its work.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import isqrt


def _interp_kernel() -> int:
    # small-integer loops, dict traffic and calls: the shape of the rn layer
    seen: dict[int, int] = {}
    v = 1
    total = 0
    for n in range(5000):
        v = v * 2 % 8191
        seen[v] = n
        total += isqrt(n * 7 + 3) % 5
    return total + len(seen)


_REF_P = 9689  # a Mersenne exponent of the size the mersenne_exponents workload tests
_REF_M = (1 << _REF_P) - 1


def _bigint_kernel() -> int:
    # the Lucas-Lehmer step: multi-limb squaring and folding modulo 2**p - 1
    s = 4
    for _ in range(30):
        x = s * s - 2 + _REF_M
        while x > _REF_M:
            x = (x & _REF_M) + (x >> _REF_P)
        s = 0 if x == _REF_M else x
    return s


KERNELS = {"interp": _interp_kernel, "bigint": _bigint_kernel}


def reference(kind: str, reps: int = 9) -> float:
    """Median thread-CPU seconds of one kernel call."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(reps):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


class Sampler:
    """Kernel timings taken before, during (every `interval` s, by SIGALRM) and after a job.

    `stolen` is the wall time the in-job samples took; the job's own time
    is its wall time minus that.
    """

    def __init__(self, kind: str, interval: float = 0.1):
        self.kind = kind
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        KERNELS[self.kind]()
        self.samples.append(time.thread_time() - c0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples.append(reference(self.kind))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference(self.kind))


# Thread-CPU seconds of one kernel call at nominal speed: the fast state of
# a 2-core Intel Xeon VM running Python 3.11.
NOMINAL_S = {"interp": 0.0011, "bigint": 0.0011}
# Wall seconds of `python3 -c pass` on the same machine at nominal speed.
NOMINAL_START_S = 0.05


def scaled(wall_s: float, samples: list[float], kind: str) -> float:
    """Wall seconds at nominal speed: wall times the mean of nominal/sample.

    Samples are evenly spaced in time, so the mean of the speed ratios is
    the job's average speed relative to nominal.
    """
    return wall_s * statistics.fmean(NOMINAL_S[kind] / s for s in samples)
