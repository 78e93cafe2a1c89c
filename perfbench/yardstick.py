"""A yardstick for the speed of the host.

The benchmark runs on a virtual machine that shares its cores with other
tenants. Their load changes the speed of single-threaded Python and numpy
code by up to 2x, for seconds to minutes at a time, and every timing
inherits it. So the benchmark times a fixed reference workload, the *unit*,
next to the program, and reports each timing at the speed where one unit
takes :data:`UNIT_MS`:

    normalised_ms = measured_ms * UNIT_MS / unit_ms_at_the_same_moment

The unit depends on nothing in ``repro``, so a change to the program moves
the normalised timing exactly as much as the wall-clock one. The unit mixes
the kinds of work the program does: interpreter loops, small matrix
products, many calls on tiny numpy arrays, dict and list churn, and
half-megabyte arrays.
"""
from __future__ import annotations

import math
import multiprocessing
import statistics
import time

import numpy as np

#: Median unit on an idle core of a 4-core Xeon KVM guest at 2.0 GHz, with
#: one BLAS thread. Only a scale: it sets the level of the reported
#: numbers, not their ratios.
UNIT_MS = 0.078

_A = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_B = np.linspace(0.0, 1.0, 16)
_C = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)


def _interpreter():
    s = 0
    for i in range(1000):
        s += i * i % 7


def _small_matmul():
    for _ in range(8):
        np.tanh(_A @ _A)


def _tiny_arrays():
    v = _B
    for _ in range(60):
        v = np.maximum(v * 0.5 + _B, 0.0)


def _dicts():
    d = {i: (i, str(i)) for i in range(300)}
    sorted(d.values(), key=lambda x: -x[0])


def _memory():
    (_C * 0.5 + _C).sum()


_KERNELS = (_interpreter, _small_matmul, _tiny_arrays, _dicts, _memory)


def unit_ms() -> float:
    """Time one unit: the geometric mean, in ms, of the times of its five
    kernels, each a fraction of a ms."""
    logs = 0.0
    for k in _KERNELS:
        t0 = time.perf_counter()
        k()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(_KERNELS)) * 1000.0


def slowness(n: int = 200) -> float:
    """The host's slowness now: the median of ``n`` units over :data:`UNIT_MS`
    (about 0.15 s for the default ``n``)."""
    return statistics.median(unit_ms() for _ in range(n)) / UNIT_MS


def parallel_slowness(k: int, n: int = 200) -> float:
    """The host's slowness on ``k`` cores at once: the mean of
    :func:`slowness` in ``k`` processes forked from this one, which have
    ended when it returns."""
    if k <= 1:
        return slowness(n)
    pool = multiprocessing.get_context("fork").Pool(k)
    try:
        return statistics.mean(pool.map(slowness, [n] * k, chunksize=1))
    finally:
        pool.close()
        pool.join()


class Laps:
    """Wall-clock laps of timed work, each followed by one unit that the
    laps do not count. :meth:`normalised` divides each lap by the slowness
    around it: the median of the ``window`` units centred on it."""

    def __init__(self, window: int = 11):
        self.window = window
        self.ms: list[float] = []
        self.units: list[float] = []
        self._t = time.perf_counter()

    def restart(self) -> None:
        self._t = time.perf_counter()

    def lap(self) -> float:
        """End a lap; returns its wall-clock ms."""
        ms = (time.perf_counter() - self._t) * 1000.0
        self.ms.append(ms)
        self.units.append(unit_ms())
        self._t = time.perf_counter()
        return ms

    def slowness(self) -> np.ndarray:
        u = np.asarray(self.units)
        h = self.window // 2
        return np.array([np.median(u[max(0, i - h): i + h + 1]) for i in range(len(u))]) / UNIT_MS

    def normalised(self) -> np.ndarray:
        return np.asarray(self.ms) / self.slowness()
