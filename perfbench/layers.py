"""Per-layer figures of the traced run.

Each function replays a workload's recorded inputs through the program's
public layer functions, timing the calls from here, and reads the counters
the program already keeps (``RadiusCache.stats()``, ``repro.obs`` spans).
Nothing is added inside the program.  A metric whose layer a workload does
not exercise reads 0; the README lists which metrics apply where.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from inputs import QuadraticProblem

#: every per-layer metric, with its unit, in the order they are printed
PER_LAYER_UNITS = {
    "serve.server_ms_mean": "ms",
    "serve.outside_server_ms_mean": "ms",
    "serve.queue_wait_ms_mean": "ms",
    "serve.deadline_flushes_per_request": "ratio",
    "serve.engine_calls_per_request": "ratio",
    "protocol.decode_ms_mean": "ms",
    "protocol.encode_ms_mean": "ms",
    "engine.call_ms_mean": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.solves_per_op": "count",
    "engine.dispatch_ms_per_solve": "ms",
    "solver.ms_per_solve": "ms",
    "solver.starts_per_solve": "count",
    "alloc.finishing_times_ms": "ms",
    "alloc.radii_ms_per_tau": "ms",
    "api.engine_passes_per_op": "count",
    "host.kernel_ms_mean": "ms",
}

#: spans the engine opens once per pass over a population
ENGINE_PASS_SPANS = ("engine.evaluate_allocation", "engine.evaluate_population")


def _mean_ms(total_s: float, n: int) -> float:
    return total_s * 1e3 / n if n else 0.0


def count_spans(tracer, names) -> int:
    """Spans of the given names the tracer recorded."""
    return sum(1 for span in tracer.spans() if span.name in names)


def build_problem(problem: QuadraticProblem):
    """The in-process ``(features, parameter)`` form of one generated problem."""
    from repro.core.features import FeatureBounds, PerformanceFeature
    from repro.core.perturbation import PerturbationParameter
    from repro.serve.protocol import QuadraticImpact

    features = [
        PerformanceFeature(
            f"q{j}", QuadraticImpact(problem.weights[j]), FeatureBounds(upper=float(beta))
        )
        for j, beta in enumerate(problem.betas)
    ]
    return features, PerturbationParameter("pi", problem.origin)


def fepia_layers(fresh_ops: Callable[[], list[list[tuple]]], backend: str | None) -> dict:
    """Engine, cache and solver figures of a stream of FePIA ops.

    ``fresh_ops()`` returns the ops' ``(features, parameter)`` problems as
    new objects each time it is called, the way a server decodes every
    request afresh.  Each replay runs on one long-lived engine, as the
    server holds it.
    """
    from repro import obs
    from repro.core.boundary import boundary_relations
    from repro.core.solvers.numeric import boundary_min_norm
    from repro.engine import RobustnessEngine

    engine = RobustnessEngine(backend=backend)
    kwargs = engine.config.numeric_kwargs()
    engine_s = solver_s = 0.0
    n_direct = n_starts = 0
    n_ops = 0
    # engine call and direct solves of each op back to back, so drift in
    # machine speed falls on both alike
    for problems, same_problems in zip(fresh_ops(), fresh_ops()):
        t0 = time.perf_counter()
        engine.evaluate_population(problems, on_error="record")
        engine_s += time.perf_counter() - t0
        n_ops += 1
        for features, parameter in same_problems:
            for feature in features:
                for relation in boundary_relations(feature):
                    t0 = time.perf_counter()
                    res = boundary_min_norm(relation, parameter.origin, engine.norm, **kwargs)
                    solver_s += time.perf_counter() - t0
                    n_direct += 1
                    n_starts += res.n_starts
    stats = engine.cache.stats()
    lookups = stats["hits"] + stats["misses"]

    counting = RobustnessEngine(backend=backend)
    with obs.observed() as tracer:
        for problems in fresh_ops():
            counting.evaluate_population(problems, on_error="record")
    solves = count_spans(tracer, ("fault.task",))

    ms_per_solve = _mean_ms(solver_s, n_direct)
    return {
        "engine.call_ms_mean": _mean_ms(engine_s, n_ops),
        "engine.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "engine.solves_per_op": solves / n_ops,
        "engine.dispatch_ms_per_solve": (
            (engine_s * 1e3 - ms_per_solve * solves) / solves if solves else 0.0
        ),
        "solver.ms_per_solve": ms_per_solve,
        "solver.starts_per_solve": n_starts / n_direct if n_direct else 0.0,
    }


def served_alloc_layers(bodies: list[bytes]) -> dict:
    """Protocol, engine and Eq. 6 kernel figures of recorded ``/evaluate`` bodies.

    Each request is replayed as a batch of one.
    """
    from repro import obs
    from repro.alloc.makespan import batch_finishing_times
    from repro.alloc.robustness import batch_robustness_radii
    from repro.engine import RobustnessEngine
    from repro.serve.protocol import (
        decode_problem,
        dump_json,
        outcome,
        parse_json_body,
        response_envelope,
    )

    engine = RobustnessEngine(backend="asyncio")
    decode_s = engine_s = encode_s = finishing_s = radii_s = 0.0
    for body in bodies:
        t0 = time.perf_counter()
        doc = parse_json_body(body)
        problem = decode_problem(doc["problem"])
        t1 = time.perf_counter()
        mappings = problem.mapping[None, :]
        res = engine.evaluate_allocation(mappings, problem.etc, problem.tau)
        t2 = time.perf_counter()
        dump_json(response_envelope(doc.get("id"), outcome(res.result_for(0).to_dict())))
        t3 = time.perf_counter()
        batch_finishing_times(mappings, problem.etc)
        t4 = time.perf_counter()
        batch_robustness_radii(mappings, problem.etc, problem.tau)
        t5 = time.perf_counter()
        decode_s += t1 - t0
        engine_s += t2 - t1
        encode_s += t3 - t2
        finishing_s += t4 - t3
        radii_s += t5 - t4
    stats = engine.cache.stats()
    lookups = stats["hits"] + stats["misses"]
    with obs.observed() as tracer:
        for body in bodies:
            problem = decode_problem(parse_json_body(body)["problem"])
            engine.evaluate_allocation(problem.mapping[None, :], problem.etc, problem.tau)
    n = len(bodies)
    return {
        "protocol.decode_ms_mean": _mean_ms(decode_s, n),
        "protocol.encode_ms_mean": _mean_ms(encode_s, n),
        "engine.call_ms_mean": _mean_ms(engine_s, n),
        "engine.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "engine.solves_per_op": count_spans(tracer, ("fault.task",)) / n,
        "alloc.finishing_times_ms": _mean_ms(finishing_s, n),
        "alloc.radii_ms_per_tau": _mean_ms(radii_s, n),
    }


def curve_layers(populations: list[np.ndarray], etc: np.ndarray, taus) -> dict:
    """Engine and Eq. 6 kernel figures of the curve populations, per tau."""
    from repro.alloc.makespan import batch_finishing_times
    from repro.alloc.robustness import batch_robustness_radii
    from repro.engine import RobustnessEngine

    engine = RobustnessEngine()
    engine_s = finishing_s = radii_s = 0.0
    n_calls = 0
    for population in populations:
        for tau in taus:
            t0 = time.perf_counter()
            engine.evaluate_allocation(population, etc, float(tau))
            t1 = time.perf_counter()
            batch_robustness_radii(population, etc, float(tau))
            t2 = time.perf_counter()
            engine_s += t1 - t0
            radii_s += t2 - t1
            n_calls += 1
        t0 = time.perf_counter()
        batch_finishing_times(population, etc)
        finishing_s += time.perf_counter() - t0
    return {
        "engine.call_ms_mean": _mean_ms(engine_s, n_calls),
        "alloc.finishing_times_ms": _mean_ms(finishing_s, len(populations)),
        "alloc.radii_ms_per_tau": _mean_ms(radii_s, n_calls),
    }


def complete(partial: dict) -> dict:
    """All per-layer metrics, in print order, 0 where a layer is not exercised."""
    return {name: float(partial.get(name, 0.0)) for name in PER_LAYER_UNITS}
