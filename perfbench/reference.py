"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ``repro``: both quantities are computed afresh from
their definitions in the paper, so a fault in the program cannot hide in
the check.

- :func:`allocation_radii` / :func:`allocation_metric` -- Eq. 6 from
  per-machine sums, ``r_j = (tau * M_orig - F_j) / sqrt(n_j)``, and the
  metric (Eq. 7) as the minimum over machines.  A machine with no task has
  an infinite radius.
- :func:`quadratic_radii` -- the l2 distance from an interior origin ``o``
  to the ellipsoid ``sum_i w_i x_i**2 = beta`` (all ``w_i > 0``).  The
  closest point is ``x = o / (1 + lam * w)``, with ``lam`` the unique root
  in ``(-1 / max w, 0)`` of the secular equation
  ``sum_i w_i o_i**2 / (1 + lam * w_i)**2 = beta``; the left side falls
  monotonically on that interval, so the root is found by bisection.
"""

from __future__ import annotations

import math

import numpy as np

#: the agreement target between the program and these references
REL_TOL = 1e-9


def machine_sums(mapping, etc) -> tuple[list[float], list[int]]:
    """Finishing time ``F_j`` and task count ``n_j`` of every machine."""
    n_machines = len(etc[0])
    times: list[list[float]] = [[] for _ in range(n_machines)]
    for task, machine in enumerate(mapping):
        times[int(machine)].append(float(etc[task][int(machine)]))
    return [math.fsum(t) for t in times], [len(t) for t in times]


def radii_from_sums(sums: list[float], counts: list[int], tau: float) -> list[float]:
    """Eq. 6 from per-machine sums; a machine with no task never binds."""
    makespan = max(sums)
    return [
        (tau * makespan - f) / math.sqrt(n) if n else math.inf
        for f, n in zip(sums, counts)
    ]


def allocation_radii(mapping, etc, tau: float) -> list[float]:
    """Eq. 6 for one mapping, from per-machine sums of its tasks' ETCs."""
    return radii_from_sums(*machine_sums(mapping, etc), tau)


def allocation_metric(mapping, etc, tau: float) -> float:
    """Eq. 7: the smallest Eq. 6 radius over the machines."""
    return min(allocation_radii(mapping, etc, tau))


def quadratic_radii(weights: np.ndarray, origins: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Distance to the boundary ``sum w x**2 = beta`` for many features at once.

    ``weights`` and ``origins`` are ``(k, n)``, ``betas`` is ``(k,)``; every
    weight must be positive and every origin strictly inside its ellipsoid.
    Returns the ``(k,)`` radii.
    """
    w = np.asarray(weights, dtype=float)
    o = np.asarray(origins, dtype=float)
    beta = np.asarray(betas, dtype=float)
    if np.any(w <= 0):
        raise ValueError("the quadratic reference needs positive weights")
    if np.any(np.sum(w * o * o, axis=1) >= beta):
        raise ValueError("the quadratic reference needs an origin inside the bound")
    lo = -1.0 / w.max(axis=1)  # secular sum -> +inf here
    hi = np.zeros_like(lo)  # secular sum = f(o) < beta here
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            settled = (mid == lo) | (mid == hi)
            if np.all(settled):
                break
            secular = np.sum(w * o * o / (1.0 + mid[:, None] * w) ** 2, axis=1)
            above = secular > beta
            lo = np.where(above & ~settled, mid, lo)
            hi = np.where(~above & ~settled, mid, hi)
    lam = 0.5 * (lo + hi)
    # x - o = -o * lam * w / (1 + lam * w), written without the cancellation
    return np.linalg.norm(o * (lam[:, None] * w) / (1.0 + lam[:, None] * w), axis=1)


def rel_error(value: float, reference: float) -> float:
    """Relative distance of ``value`` from ``reference`` (0 for equal infinities)."""
    if math.isinf(reference) or math.isinf(value):
        return 0.0 if value == reference else math.inf
    if math.isnan(value):
        return math.inf
    return abs(value - reference) / max(abs(reference), 1e-300)
