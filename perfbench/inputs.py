"""Seeded inputs of every workload.

All inputs are plain numpy arrays and JSON-ready dicts built from the
workload seed alone; the program receives only these generated inputs.
Nothing here imports ``repro``, so the load generator stays independent of
the code it measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# -- the paper's allocation workload (Section 4.2, Fig. 3) -------------------
# 20 applications on 5 machines, ETC by the CVB method of Ali et al. 2000
# (Gamma, mean 10, task and machine heterogeneity 0.7), 1000 uniform random
# mappings, tolerance tau = 1.2.  Both allocation workloads use it.
PAPER_TASKS = 20
PAPER_MACHINES = 5
PAPER_ETC_MEAN = 10.0
PAPER_TASK_HET = 0.7
PAPER_MACHINE_HET = 0.7
PAPER_MAPPINGS = 1000
PAPER_TAU = 1.2

# -- serve_alloc: one Fig. 3 mapping per request -----------------------------
ALLOC_CLIENTS = 2

# -- quadratic FePIA problems (population_quadratic_repeat / _unique) -------
# The paper has no workload with quadratic impacts; these sizes are chosen so
# that an op costs a few SLSQP solves (tens of ms), not taken from any traffic.
QUAD_DIM = 8
QUAD_FEATURES = 2
#: problems per op, drawn uniformly per op (mean 3).  Ops of varied size
#: spread the latency distribution, so its percentiles move smoothly with
#: the machine's speed instead of jumping between two speed states.
QUAD_OP_SIZES = (1, 2, 3, 4, 5)
QUAD_POOL = 64
#: ops of the repeat workload before its request sequence wraps around
REPEAT_OPS = 16384

# -- curve_alloc: a tau sweep over Fig. 3 populations -----------------------
#: mappings in each population.  The mean is the paper's 1000; the sizes
#: around it are chosen for steadiness, not taken from any traffic (see
#: README.md): ops of varied size keep the latency percentiles from
#: jumping between this VM's speed states.
CURVE_SIZES = (650, 750, 850, 950, 1050, 1150, 1250, 1350)
#: 16 tolerances 1.025, 1.05, ..., 1.4 around the paper's tau = 1.2
CURVE_TAUS = tuple(round(1.0 + 0.025 * k, 3) for k in range(1, 17))

#: warm-up ops per client before the timed phase (part of set-up)
WARMUP_OPS = 4


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


# -- allocation --------------------------------------------------------------
def cvb_etc(rng: np.random.Generator) -> np.ndarray:
    """The paper's ``(PAPER_TASKS, PAPER_MACHINES)`` ETC matrix by the CVB method.

    Task ``i`` draws its mean ``q_i ~ Gamma(shape=1/V_task**2,
    scale=mean*V_task**2)``; its row then draws ``C_ij ~
    Gamma(shape=1/V_mach**2, scale=q_i*V_mach**2)``.
    """
    v_task, v_mach = PAPER_TASK_HET**2, PAPER_MACHINE_HET**2
    q = rng.gamma(1.0 / v_task, PAPER_ETC_MEAN * v_task, size=PAPER_TASKS)
    return rng.gamma(1.0 / v_mach, size=(PAPER_TASKS, PAPER_MACHINES)) * (q * v_mach)[:, None]


def random_mappings(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform random mappings, shape ``(n, PAPER_TASKS)``."""
    return rng.integers(0, PAPER_MACHINES, size=(n, PAPER_TASKS))


@dataclass(frozen=True)
class AllocationInputs:
    etc: np.ndarray  # (PAPER_TASKS, PAPER_MACHINES)
    mappings: np.ndarray  # (PAPER_MAPPINGS, PAPER_TASKS)
    tau: float


def allocation_inputs(seed: int) -> AllocationInputs:
    rng = _rng(seed, 1)
    etc = cvb_etc(rng)
    return AllocationInputs(etc=etc, mappings=random_mappings(rng, PAPER_MAPPINGS), tau=PAPER_TAU)


def allocation_problem(inputs: AllocationInputs, index: int) -> dict:
    """Wire form of pool mapping ``index`` (protocol 1, kind ``allocation``)."""
    return {
        "kind": "allocation",
        "mapping": inputs.mappings[index].tolist(),
        "etc": inputs.etc.tolist(),
        "tau": inputs.tau,
    }


def allocation_bodies(inputs: AllocationInputs) -> list[bytes]:
    """One ``POST /evaluate`` body per pool mapping."""
    return [
        json.dumps({"id": f"a{i}", "problem": allocation_problem(inputs, i)}).encode()
        for i in range(len(inputs.mappings))
    ]


# -- quadratic FePIA problems ------------------------------------------------
@dataclass(frozen=True)
class QuadraticProblem:
    """``QUAD_FEATURES`` upper-bounded quadratic features over one origin."""

    origin: np.ndarray  # (QUAD_DIM,)
    weights: np.ndarray  # (QUAD_FEATURES, QUAD_DIM), all positive
    betas: np.ndarray  # (QUAD_FEATURES,), each above its value at the origin


def quadratic_problem(rng: np.random.Generator) -> QuadraticProblem:
    origin = rng.uniform(0.5, 1.5, size=QUAD_DIM)
    weights = rng.uniform(0.5, 2.0, size=(QUAD_FEATURES, QUAD_DIM))
    at_origin = weights @ (origin * origin)
    betas = at_origin * rng.uniform(1.5, 3.0, size=QUAD_FEATURES)
    return QuadraticProblem(origin=origin, weights=weights, betas=betas)


def quadratic_pool(seed: int) -> list[QuadraticProblem]:
    """The fixed pool of distinct problems that repeat traffic draws from."""
    rng = _rng(seed, 2)
    return [quadratic_problem(rng) for _ in range(QUAD_POOL)]


def repeat_op_indices(seed: int, n_ops: int) -> list[list[int]]:
    """Pool indices of the problems of each of ``n_ops`` ops.

    Each op names distinct problems; problems repeat across ops.
    """
    rng = _rng(seed, 3)
    sizes = rng.choice(QUAD_OP_SIZES, size=n_ops)
    order = np.argsort(rng.random((n_ops, QUAD_POOL)), axis=1)
    return [row[:size].tolist() for row, size in zip(order, sizes)]


def unique_op_problems(seed: int, op: int, *, warmup: bool = False) -> list[QuadraticProblem]:
    """The never-repeated problems of in-process op number ``op``.

    Warm-up ops draw from their own stream, so no timed op repeats them.
    """
    rng = _rng(seed, 6 if warmup else 4, op)
    return [quadratic_problem(rng) for _ in range(rng.choice(QUAD_OP_SIZES))]


# -- curve populations -------------------------------------------------------
@dataclass(frozen=True)
class CurveInputs:
    etc: np.ndarray  # (PAPER_TASKS, PAPER_MACHINES)
    populations: tuple[np.ndarray, ...]  # (size, PAPER_TASKS) for each of CURVE_SIZES
    taus: tuple[float, ...]


def curve_inputs(seed: int) -> CurveInputs:
    rng = _rng(seed, 5)
    etc = cvb_etc(rng)
    populations = tuple(random_mappings(rng, size) for size in CURVE_SIZES)
    return CurveInputs(etc=etc, populations=populations, taus=CURVE_TAUS)
