"""The host's speed, read from fixed reference kernels, and timings scaled by it.

This benchmark runs on a share of a host whose speed drifts: the same
CPU-bound op runs up to twice as long from one hour to the next, and up
to a third longer from one second to the next, with the process on the
CPU all the while.  A CPU-bound timing therefore follows the host more
than the program.  The benchmark times a kernel, a fixed amount of work
of its own, right beside each timing, and scales the timing to the speed
at which the kernel takes its ``reference_ms``:

    scaled = measured * reference_ms / kernel time measured beside it

A scaled timing reads in milliseconds (or seconds) on a host of that
speed.  The host does not slow every kind of code alike, so each timing is
scaled by the kernel whose work is most like it:

- ``SOLVER``: one SciPy SLSQP solve of a fixed 8-dimensional problem with
  one quadratic constraint, the kind of work the numeric solver does;
- ``MIXED``: interpreter loops, numpy calls on 8-vectors and passes over a
  population-sized array, for everything else.

Neither calls the program, so no change to the program moves them.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

_VECTOR = np.linspace(0.5, 1.5, 8)
_WEIGHTS = np.linspace(0.5, 2.0, 8)
_POPULATION = np.linspace(0.5, 1.5, 1000 * 20).reshape(1000, 20)


def _mixed() -> float:
    acc = 0.0
    for i in range(80):
        x = _VECTOR * (1.0 + 1e-3 * i)
        acc += float(np.sqrt(x @ x)) + float(np.max(x - _VECTOR))
        counts: dict[int, float] = {}
        for j in range(48):
            counts[j % 7] = counts.get(j % 7, 0.0) + j * 0.5
        acc += counts[3]
    for _ in range(3):
        acc += float((_POPULATION * 1.0001).sum(axis=1).min())
    return acc


def _solver() -> float:
    """The point closest to ``_VECTOR`` with ``sum(w * x**2) <= 3`` (13 SLSQP iterations)."""
    result = minimize(
        lambda x: float(((x - _VECTOR) ** 2).sum()),
        _VECTOR * 0.5,
        jac=lambda x: 2.0 * (x - _VECTOR),
        method="SLSQP",
        constraints=[
            {
                "type": "ineq",
                "fun": lambda x: 3.0 - float(_WEIGHTS @ (x * x)),
                "jac": lambda x: -2.0 * _WEIGHTS * x,
            }
        ],
    )
    return float(result.fun)


@dataclass(frozen=True)
class Kernel:
    """A fixed amount of work and its time at the reference speed."""

    work: Callable[[], float]
    #: the kernel's time (ms) at the reference speed
    reference_ms: float

    def ms(self, repeats: int = 1) -> float:
        """Mean wall time of ``repeats`` back-to-back kernels, in ms."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            self.work()
        return (time.perf_counter() - t0) * 1e3 / repeats

    def at_reference(self, measured, kernel_ms):
        """``measured`` scaled by the kernel time ``kernel_ms`` taken beside it."""
        return measured * self.reference_ms / kernel_ms

    def cpu_at_reference(self, measured: float, cpu: float, kernel_ms: float) -> float:
        """A timing of which only the part ``cpu`` is CPU work, scaled.

        The rest of ``measured`` is waiting (timers, wake-ups), which takes as
        long on a slow host as on a fast one, so only ``cpu`` is scaled.
        """
        return measured - cpu + self.at_reference(cpu, kernel_ms)

    def scaled(self, measured: list[float], kernel_ms: list[float], half_window: int) -> list[float]:
        """Each ``measured[i]`` scaled by the mean kernel time around it.

        ``kernel_ms[i]`` is the kernel time taken right after
        ``measured[i]``; the mean runs over the ``2 * half_window + 1``
        kernels centred on ``i`` (fewer at the ends), so it follows the
        host's speed from second to second while one stray kernel time
        moves it little.
        """
        k = np.asarray(kernel_ms, dtype=float)
        sums = np.concatenate(([0.0], np.cumsum(k)))
        idx = np.arange(len(k))
        lo = np.maximum(idx - half_window, 0)
        hi = np.minimum(idx + half_window + 1, len(k))
        local = (sums[hi] - sums[lo]) / (hi - lo)
        return self.at_reference(np.asarray(measured, dtype=float), local).tolist()


#: reference speeds: ``MIXED`` takes 0.75 ms on this host at its fastest
#: seen; ``SOLVER`` took 0.73 times as long as ``MIXED`` in a run of both
#: side by side
MIXED = Kernel(_mixed, reference_ms=0.75)
SOLVER = Kernel(_solver, reference_ms=0.55)
