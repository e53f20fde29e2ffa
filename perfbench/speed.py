"""Machine-speed sampling: times stated at a fixed reference speed.

On a shared host the CPU a run gets can change speed by a factor of 1.5
or more for seconds to minutes at a time, which no repetition within a
run of under a minute averages out.  So every SAMPLE_INTERVAL_S a timer
signal runs ``kernel``, a fixed piece of work of the kinds bnsharp does
(small and mid-size FFTs, an elementwise exp, a pass over an array larger
than L2, a Python integer loop), and records how long it took.  A span of
wall time T during which the kernel took k_1, ..., k_n is reported as

    (T - sum k_i) * mean(KERNEL_REF_S / k_i)

that is, with the sampling time taken out and scaled to the speed at which
the kernel takes KERNEL_REF_S.  The kernel calls the numpy functions it
captured at import, so tracing wrappers installed later never see it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.fft import fftn, ifftn

#: The kernel's time on the host the benchmark was tuned on (2 vCPUs,
#: OpenBLAS, one thread) when that host ran at its fastest.
KERNEL_REF_S = 0.0025
SAMPLE_INTERVAL_S = 0.1

_SMALL = np.exp(1j * np.linspace(0.0, 9.0, 64 * 64)).reshape(64, 64)
_MID = np.exp(1j * np.linspace(0.0, 9.0, 128 * 128)).reshape(128, 128)
_PHASE = 1j * np.linspace(0.0, 50.0, 1 << 15)
# 16 MB, four times the L2 of the tuning host: streams through L3 / memory
_STREAM = np.zeros(1 << 21)
# the kernel writes into these, so that sampling adds no allocations that
# could move the worker's peak RSS
_OUT = {a.shape: (np.empty_like(a), np.empty_like(a))
        for a in (_SMALL, _MID, _PHASE)}


def kernel() -> float:
    """Run the fixed piece of work; return its wall time in seconds."""
    t0 = time.perf_counter()
    for a, repeats in ((_SMALL, 4), (_MID, 1)):
        f, g = _OUT[a.shape]
        for _ in range(repeats):
            fftn(a, out=f)
            ifftn(f, out=g)
    e, _ = _OUT[_PHASE.shape]
    np.exp(_PHASE, out=e)
    e.sum()
    np.add(_STREAM, 1.0, out=_STREAM)
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """Wall time ``seconds`` (sampling included) at the reference speed."""
    if not samples:
        return seconds
    scale = sum(KERNEL_REF_S / k for k in samples) / len(samples)
    return (seconds - sum(samples)) * scale


class Sampler:
    """Runs ``kernel`` from a SIGALRM timer and records, per sample, its end
    time on the perf_counter clock and the kernel's seconds.

    The records go to an array allocated up front: a list growing in the
    signal handler would be reallocated on the heap among the workload's
    arrays, and its blocks measurably raised the worker's peak RSS.
    """

    def __init__(self, capacity: int = 1 << 14):
        self._records = np.zeros((capacity, 2))
        self._count = 0

    def _tick(self, signum, frame) -> None:
        k = kernel()
        if self._count < len(self._records):
            self._records[self._count] = time.perf_counter(), k
            self._count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples taken in [start, end]."""
        t, k = self._records[:self._count].T
        return k[(t >= start) & (t <= end)].tolist()
