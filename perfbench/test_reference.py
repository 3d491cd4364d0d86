"""Hand-checkable cases for the benchmark's independent references.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the repo root.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    allocation_metric,
    allocation_radii,
    quadratic_radii,
    rel_error,
)


def test_eq6_two_tasks_two_machines_by_hand():
    # task 0 -> machine 0 (2 s), task 1 -> machine 1 (3 s): F = (2, 3),
    # M_orig = 3, tau * M_orig = 4.5, one task per machine.
    etc = [[2.0, 5.0], [4.0, 3.0]]
    assert allocation_radii([0, 1], etc, 1.5) == [2.5, 1.5]
    assert allocation_metric([0, 1], etc, 1.5) == 1.5


def test_eq6_shared_machine_and_empty_machine():
    # both tasks on machine 0: F = (6, 0), n = (2, 0), M_orig = 6
    etc = [[2.0, 5.0], [4.0, 3.0]]
    radii = allocation_radii([0, 0], etc, 1.5)
    assert radii[0] == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)
    assert radii[1] == math.inf
    assert allocation_metric([0, 0], etc, 1.5) == radii[0]


def test_sphere_radius_is_sqrt_beta_minus_norm():
    # w = 1: the boundary is the sphere of radius sqrt(beta) = 5; |o| = 3
    r = quadratic_radii(np.ones((1, 3)), np.array([[1.0, 2.0, 2.0]]), np.array([25.0]))
    assert r[0] == pytest.approx(2.0, rel=1e-14)


def test_spheres_of_many_sizes_at_once():
    rng = np.random.default_rng(7)
    origins = rng.uniform(0.1, 1.0, size=(50, 6))
    norms = np.linalg.norm(origins, axis=1)
    betas = (norms * rng.uniform(1.1, 4.0, size=50)) ** 2
    r = quadratic_radii(np.ones_like(origins), origins, betas)
    np.testing.assert_allclose(r, np.sqrt(betas) - norms, rtol=1e-13)


def test_one_dimension_by_hand():
    # 4 x**2 = 4 at x = 1; from x = 0.5 the distance is 0.5 (lam = -1/8)
    r = quadratic_radii(np.array([[4.0]]), np.array([[0.5]]), np.array([4.0]))
    assert r[0] == pytest.approx(0.5, rel=1e-15)


def test_ellipse_against_dense_boundary_sampling():
    # x**2 + 4 y**2 = 4 from (0.3, 0.2): sample the boundary densely
    w, o, beta = np.array([1.0, 4.0]), np.array([0.3, 0.2]), 4.0
    t = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
    pts = np.stack([np.sqrt(beta / w[0]) * np.cos(t), np.sqrt(beta / w[1]) * np.sin(t)], axis=1)
    sampled = np.min(np.linalg.norm(pts - o, axis=1))
    r = quadratic_radii(w[None, :], o[None, :], np.array([beta]))
    assert r[0] <= sampled + 1e-12
    assert r[0] == pytest.approx(sampled, rel=1e-9)


def test_rejects_origin_outside_the_bound():
    with pytest.raises(ValueError):
        quadratic_radii(np.ones((1, 2)), np.array([[3.0, 0.0]]), np.array([4.0]))


def test_rel_error_handles_infinities():
    assert rel_error(math.inf, math.inf) == 0.0
    assert rel_error(1.0, math.inf) == math.inf
    assert rel_error(1.0 + 1e-12, 1.0) < 1e-9
