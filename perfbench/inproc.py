"""Child process of the in-process workloads.

Usage (started by ``run.py``, one fresh process per set-up)::

    python3 perfbench/inproc.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It imports the program, generates its inputs and warms up, then prints
``READY`` and waits for a line on stdin.  With ``--setup-only`` it exits
there; otherwise it runs the timed phase, checks every output against the
independent references and prints one JSON line with its figures.  Each
timed op is followed by one reference kernel (``speed.py``), and the
figures are scaled to the reference speed by the kernels around each op.

Each workload class has ``kernel``, the ``speed`` kernel its timings are
scaled by; ``setup(seed)``; ``op(k)``, which runs op ``k`` and returns its
latency in seconds; ``failed_ops(n_ops, errors)``, which checks the
outputs after the timed phase; and ``layers(n_ops)``, the traced run's
replay.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
import time

import numpy as np

import checks
import inputs
import speed
from common import latency_summary, log, peak_rss_mb
from layers import ENGINE_PASS_SPANS, build_problem, count_spans, curve_layers, fepia_layers

#: ops replayed layer by layer in a traced run
REPLAY_POPULATION_OPS = 24
REPLAY_CURVE_OPS = 8

#: longest error list a run reports
MAX_ERRORS = 5

#: each op's timing is scaled by the mean of the reference kernels of the
#: 2 * KERNEL_HALF_WINDOW + 1 ops around it (a fraction of a second of ops;
#: the host's speed changes from second to second)
KERNEL_HALF_WINDOW = 10


class Population:
    """Quadratic FePIA populations, 1 to 5 problems per op.

    ``failed_ops`` and ``layers`` need ``problems(k)``, the generated
    problems of op ``k``, and ``evaluate``, the call an op times.
    """

    #: SLSQP solves do the work, so an SLSQP solve follows the host best
    kernel = speed.SOLVER

    def setup(self, seed: int) -> None:
        from repro import api

        self.api = api
        self.seed = seed
        #: per op, per problem: (metric value, radii, number of failure records)
        self.outputs: list[list[tuple]] = []
        for k in range(inputs.WARMUP_OPS):
            self.evaluate([build_problem(p) for p in self.warmup_problems(k)])

    def op(self, k: int) -> float:
        problems = [build_problem(p) for p in self.problems(k)]
        t0 = time.perf_counter()
        batch = self.evaluate(problems)
        latency = time.perf_counter() - t0
        self.outputs.append(
            [
                (
                    m.value,
                    tuple((r.feature, r.radius, r.converged, r.failure) for r in m.radii),
                    len(batch.failures_for(i)),
                )
                for i, m in enumerate(batch.results)
            ]
        )
        return latency

    def failed_ops(self, n_ops: int, errors: list[str]) -> int:
        refs = iter(
            checks.quadratic_references([p for k in range(n_ops) for p in self.problems(k)])
        )
        failed = 0
        for k, out in enumerate(self.outputs):
            op_refs = [next(refs) for _ in self.problems(k)]
            op_errors = []
            if len(out) != len(op_refs):
                op_errors.append(f"{len(out)} results for {len(op_refs)} problems")
            for (value, radii, n_failures), ref in zip(out, op_refs):
                op_errors += checks.check_metric(value, radii, n_failures, ref)
            if op_errors:
                failed += 1
                errors += [f"op {k}: {e}" for e in op_errors]
        return failed

    def layers(self, n_ops: int) -> dict:
        ops = range(min(n_ops, REPLAY_POPULATION_OPS))

        def fresh():
            return [[build_problem(p) for p in self.problems(k)] for k in ops]

        return fepia_layers(fresh, backend=None)


class UniquePopulation(Population):
    """``repro.api.evaluate_population`` on problems never seen before."""

    def evaluate(self, problems):
        return self.api.evaluate_population(problems, on_error="record")

    def problems(self, k: int):
        return inputs.unique_op_problems(self.seed, k)

    def warmup_problems(self, k: int):
        return inputs.unique_op_problems(self.seed, k, warmup=True)


class RepeatPopulation(Population):
    """One long-lived engine on pool problems re-sent as fresh objects.

    Every op rebuilds its problems from their values, as a server decodes
    each request afresh; a cache keyed by value would hit, one keyed by
    object identity cannot.
    """

    def setup(self, seed: int) -> None:
        from repro import api

        self.engine = api.RobustnessEngine()
        self.pool = inputs.quadratic_pool(seed)
        self.rows = inputs.repeat_op_indices(seed, inputs.REPEAT_OPS)
        super().setup(seed)
        self.cache_before = self.engine.cache.stats()

    def evaluate(self, problems):
        return self.engine.evaluate_population(problems, on_error="record")

    def problems(self, k: int):
        return [self.pool[i] for i in self.rows[k % len(self.rows)]]

    warmup_problems = problems

    def layers(self, n_ops: int) -> dict:
        """The replay's figures, with the hit ratio of the timed engine itself."""
        figures = super().layers(n_ops)
        after = self.engine.cache.stats()
        hits = after["hits"] - self.cache_before["hits"]
        lookups = hits + after["misses"] - self.cache_before["misses"]
        figures["engine.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return figures


class Curve:
    """``repro.api.robustness_curve`` over seeded allocation populations."""

    kernel = speed.MIXED

    def setup(self, seed: int) -> None:
        from repro import api

        self.api = api
        self.inputs = inputs.curve_inputs(seed)
        #: op -> (population, digest of its output); distinct outputs kept whole
        self.digests: list[tuple[int, bytes]] = []
        self.distinct: dict[tuple[int, bytes], tuple[np.ndarray, np.ndarray]] = {}
        for k in range(inputs.WARMUP_OPS):
            pop = self.inputs.populations[k % len(self.inputs.populations)]
            api.robustness_curve(pop, self.inputs.etc, self.inputs.taus)

    def op(self, k: int) -> float:
        which = k % len(self.inputs.populations)
        population = self.inputs.populations[which]
        t0 = time.perf_counter()
        curve = self.api.robustness_curve(population, self.inputs.etc, self.inputs.taus)
        latency = time.perf_counter() - t0
        digest = hashlib.blake2b(
            np.ascontiguousarray(curve.values).tobytes() + curve.taus.tobytes()
        ).digest()
        self.digests.append((which, digest))
        if (which, digest) not in self.distinct:
            self.distinct[(which, digest)] = (np.array(curve.taus), np.array(curve.values))
        return latency

    def failed_ops(self, n_ops: int, errors: list[str]) -> int:
        refs = {}
        bad = set()
        for (which, digest), (taus, values) in self.distinct.items():
            if which not in refs:
                refs[which] = checks.curve_reference(
                    self.inputs.populations[which], self.inputs.etc, self.inputs.taus
                )
            found = checks.check_curve(taus, self.inputs.taus, values, refs[which])
            if found:
                bad.add((which, digest))
                errors += [f"population {which}: {e}" for e in found]
        return sum(1 for key in self.digests if key in bad)

    def layers(self, n_ops: int) -> dict:
        pops = list(self.inputs.populations[: min(n_ops, REPLAY_CURVE_OPS)])
        return curve_layers(pops, self.inputs.etc, self.inputs.taus)


WORKLOADS = {
    "population_quadratic_repeat": RepeatPopulation,
    "population_quadratic_unique": UniquePopulation,
    "curve_alloc": Curve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    print("READY", flush=True)
    sys.stdin.readline()  # the parent times its reference kernel meanwhile
    if args.setup_only:
        return 0

    from repro import obs

    tracing = obs.observed() if args.trace else contextlib.nullcontext()
    #: per op: its latency, its share of the phase's wall time (s) and the
    #: reference kernel timed right after it (ms)
    latencies: list[float] = []
    periods: list[float] = []
    kernel: list[float] = []
    with tracing as tracer:
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        t_op = t_start
        while t_op < deadline:
            latencies.append(workload.op(len(latencies)))
            kernel.append(workload.kernel.ms())
            now = time.perf_counter()
            periods.append(now - t_op - kernel[-1] / 1e3)
            t_op = now
    rss = peak_rss_mb()

    n_ops = len(latencies)
    log(
        f"measured: {latency_summary(latencies, sum(periods))}, "
        f"reference kernel {statistics.mean(kernel):.4f} ms"
    )
    figures = latency_summary(
        workload.kernel.scaled(latencies, kernel, KERNEL_HALF_WINDOW),
        sum(workload.kernel.scaled(periods, kernel, KERNEL_HALF_WINDOW)),
    )
    errors: list[str] = []
    failed = workload.failed_ops(n_ops, errors)
    result = {
        "attempted": n_ops,
        "failed": failed,
        "errors": errors[:MAX_ERRORS],
        "figures": {**figures, "peak_rss_mb": rss},
    }
    if args.trace:
        layers = workload.layers(n_ops)
        layers["host.kernel_ms_mean"] = statistics.mean(kernel)
        layers["engine.solves_per_op"] = count_spans(tracer, ("fault.task",)) / n_ops
        layers["api.engine_passes_per_op"] = count_spans(tracer, ENGINE_PASS_SPANS) / n_ops
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
