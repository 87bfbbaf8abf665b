"""Host-speed calibration for the timed figures.

On a shared host the CPU itself runs faster or slower for seconds to
minutes at a time: a fixed piece of work can take twice as long for a
while, CPU time moves with wall time and steal stays near 0. A wall time
measured then says as much about the neighbours as about the program.
So while a timed stretch runs, ``HostSpeed`` runs a small fixed kernel
every ``INTERVAL_S`` of wall time (from a ``SIGALRM`` handler, in the
main thread, between two bytecodes of the program), and the timed
figures are reported in *reference seconds*: the stretch's wall time,
less the time the samples took, scaled by ``REFERENCE_S / mean sample
time``. A program change cannot move the kernel, so a real gain or loss
still shows in full; only the host's speed drops out. The raw wall
times are printed beside the scaled ones.

The kernel does the program's two kinds of work: SGD steps on numpy
scalars and short vectors driven from a Python loop (as the predictor
does) and pairwise comparisons over a candidate matrix (as the ranking
kernels do). The samples run in the main thread while the
program's own threads, if it has any, keep running, so a figure is only
sound for a serial program; the benchmark runs mcrank serially.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# The kernel's mean time on the 2-CPU Xeon VM the bounds were set on, so
# reference seconds read close to wall seconds there.
REFERENCE_S = 0.0037
INTERVAL_S = 0.1
_SGD_STEPS = 150
_PAIRWISE_N = 120


def kernel() -> float:
    """One run of the fixed calibration work; returns a checksum.

    The SGD steps are written as the predictor writes them, with numpy
    scalars: a vector-only version tracked the predictor's slowdowns
    less closely.
    """
    rng = np.random.default_rng(0)
    users = rng.integers(0, 300, size=_SGD_STEPS)
    items = rng.integers(0, 80, size=_SGD_STEPS)
    ratings = rng.uniform(1.0, 5.0, size=_SGD_STEPS)
    p = rng.normal(0.0, 0.05, size=(300, 16))
    q = rng.normal(0.0, 0.05, size=(80, 16))
    bu, bi = np.zeros(300), np.zeros(80)
    for t in range(_SGD_STEPS):
        u, i = users[t], items[t]
        pu, qi = p[u], q[i]
        err = ratings[t] - (3.0 + bu[u] + bi[i] + pu @ qi)
        bu[u] += 0.005 * (err - 0.02 * bu[u])
        bi[i] += 0.005 * (err - 0.02 * bi[i])
        pu_old = pu.copy()
        pu += 0.005 * (err * qi - 0.02 * pu)
        qi += 0.005 * (err * pu_old - 0.02 * qi)
    x = rng.random((_PAIRWISE_N, 4))
    better = (x[:, None, :] > x[None, :, :]).sum(axis=2)
    return float(p.sum()) + float(better.sum())


class HostSpeed:
    """Samples the kernel's time every ``INTERVAL_S`` inside the block.

    Not reentrant, and it owns ``SIGALRM`` while active.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed_s = 0.0

    def _sample(self, _signum, _frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed_s = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def to_reference(self, wall_s: float) -> float:
        """A wall time measured inside the block, in reference seconds.

        The samples' share of the block comes off first. With no sample
        (a block shorter than ``INTERVAL_S``) the kernel runs once now.
        """
        busy_s = sum(self.samples)
        if not self.samples:
            self._sample(None, None)
        own_s = wall_s * (1.0 - busy_s / self.elapsed_s) if self.elapsed_s else wall_s
        return own_s * REFERENCE_S * len(self.samples) / sum(self.samples)
