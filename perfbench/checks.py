"""Correctness checks of the program's outputs, run outside the timed region.

Each check returns a list of problems found (empty when the output is
right), so a run can count the op as failed and report why.
"""

from __future__ import annotations

import numpy as np

from inputs import QuadraticProblem
from reference import (
    REL_TOL,
    allocation_radii,
    machine_sums,
    quadratic_radii,
    radii_from_sums,
    rel_error,
)


def check_allocation_result(result: dict, expected: dict, mapping, etc, tau: float) -> list[str]:
    """A served ``AllocationRobustness`` against the in-process result and Eq. 6.

    ``float`` decodes the wire codec's ``"inf"`` strings as well as numbers.
    """
    errors = []
    if result != expected:
        errors.append("served allocation result differs from in-process evaluate_allocation")
    ref = allocation_radii(mapping, etc, tau)
    radii = [float(r) for r in result.get("radii", [])]
    if len(radii) != len(ref):
        return errors + [f"expected {len(ref)} radii, got {len(radii)}"]
    worst = max(rel_error(r, q) for r, q in zip(radii, ref))
    if worst > REL_TOL:
        errors.append(f"Eq. 6 radius off the reference by {worst:.3g} relative")
    value_err = rel_error(float(result.get("value")), min(ref))
    if value_err > REL_TOL:
        errors.append(f"Eq. 7 metric off the reference by {value_err:.3g} relative")
    return errors


def quadratic_references(problems: list[QuadraticProblem]) -> np.ndarray:
    """Reference radii of every feature of every problem, shape ``(len, F)``."""
    weights = np.concatenate([p.weights for p in problems])
    origins = np.concatenate([np.broadcast_to(p.origin, p.weights.shape) for p in problems])
    betas = np.concatenate([p.betas for p in problems])
    return quadratic_radii(weights, origins, betas).reshape(len(problems), -1)


def check_metric(value: float, radii, n_failures: int, ref_radii: np.ndarray) -> list[str]:
    """One FePIA metric against its references.

    ``radii`` holds ``(feature, radius, converged, failure)`` per feature and
    ``n_failures`` counts the problem's ``FailureRecord``s.
    """
    errors = []
    if n_failures:
        errors.append(f"{n_failures} failure records")
    if len(radii) != len(ref_radii):
        return errors + [f"expected {len(ref_radii)} radii, got {len(radii)}"]
    for j, (feature, radius, converged, failure) in enumerate(radii):
        if feature != f"q{j}":
            errors.append(f"radius {j} belongs to {feature!r}")
        if not converged or failure is not None:
            errors.append(f"radius q{j} not converged (failure={failure!r})")
        err = rel_error(float(radius), float(ref_radii[j]))
        if err > REL_TOL:
            errors.append(f"radius q{j} off the reference by {err:.3g} relative")
    value_err = rel_error(float(value), float(np.min(ref_radii)))
    if value_err > REL_TOL:
        errors.append(f"metric off the reference by {value_err:.3g} relative")
    return errors


def curve_reference(population: np.ndarray, etc: np.ndarray, taus) -> np.ndarray:
    """Eq. 7 of every mapping at every tau, shape ``(T, P)``."""
    etc_rows = etc.tolist()
    sums = [machine_sums(mapping, etc_rows) for mapping in population.tolist()]
    return np.array([[min(radii_from_sums(*s, tau)) for s in sums] for tau in taus])


def check_curve(
    curve_taus: np.ndarray, taus, values: np.ndarray, ref: np.ndarray
) -> list[str]:
    """A ``RobustnessCurve`` against the Eq. 7 references, and monotone in tau."""
    errors = []
    if np.asarray(curve_taus, dtype=float).tolist() != [float(t) for t in taus]:
        errors.append("curve taus differ from the requested list")
    if values.shape != ref.shape:
        return errors + [f"curve shape {values.shape} != {ref.shape}"]
    finite = np.isfinite(ref)
    if not np.array_equal(np.isfinite(values), finite):
        errors.append("curve has non-finite values where the reference has none")
    else:
        rel = np.abs(values[finite] - ref[finite]) / np.abs(ref[finite])
        worst = float(rel.max()) if rel.size else 0.0
        if not worst <= REL_TOL:
            errors.append(f"curve value off the reference by {worst:.3g} relative")
    if np.any(np.diff(values, axis=0) < 0):
        errors.append("a curve row decreases as tau grows")
    return errors
