"""End-to-end benchmark of the robustness stack, from the HTTP service to the SLSQP solve.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for sizes and why each exists):

- ``serve_alloc`` -- 2 closed-loop clients ``POST /evaluate`` one mapping
  each of the paper's Fig. 3 workload (Eq. 6) to ``repro serve``;
- ``population_quadratic_repeat`` -- one long-lived ``repro.api``
  engine evaluates quadratic FePIA problems re-sent as fresh objects from
  a fixed pool;
- ``population_quadratic_unique`` -- ``repro.api.evaluate_population`` in
  process, on quadratic problems never seen before;
- ``curve_alloc`` -- ``repro.api.robustness_curve`` in process, over
  seeded Fig. 3 populations at a fixed list of tau values.

Each run sets the program up several times in fresh processes (the median
is ``setup_s``), times the last set-up for ``--seconds``, then checks every
output against the independent references in ``reference.py``.  CPU-bound
timings are scaled to a fixed reference speed by a reference kernel timed
beside them (``speed.py``), since the host's speed drifts.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, and the
traced run's own end-to-end figures are printed on the line before it.
The exit code is non-zero when any op failed or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from common import ROOT, SETUP_KERNELS, SRC, latency_summary, log, program_env, tail_ok

HERE = Path(__file__).resolve().parent

#: the seed performance claims are gated on; confirm a gain on seed 2 as well
GATING_SEED = 1

#: counted set-ups per run (after one uncounted priming launch)
SETUPS = 5

#: longest an in-process child may run past its timed phase
CHILD_TIMEOUT_S = 150.0

#: requests replayed layer by layer in a traced served run
REPLAY_REQUESTS = 400

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


# -- served workloads ----------------------------------------------------------
def _warmup(port: int, bodies: list[bytes]) -> None:
    from served import ROUTE, Connection

    conn = Connection(port)
    try:
        for body in bodies:
            status, reply = conn.request("POST", ROUTE, body)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {reply[:200]!r}")
    finally:
        conn.close()


def serve_alloc(seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import inputs
    from served import run_served

    alloc = inputs.allocation_inputs(seed)
    bodies = inputs.allocation_bodies(alloc)
    n_clients = inputs.ALLOC_CLIENTS

    def index(client: int, k: int) -> int:
        return (k * n_clients + client) % len(bodies)

    def warmup(port: int) -> None:
        for client in range(n_clients):
            _warmup(port, [bodies[index(client, k)] for k in range(inputs.WARMUP_OPS)])

    setup_s, load, rss, scrapes = run_served(
        setups=SETUPS,
        warmup=warmup,
        n_clients=n_clients,
        seconds=seconds,
        body_for=lambda client, k: bodies[index(client, k)],
        trace=trace,
    )

    from repro import api

    expected: dict[int, dict] = {}
    etc_rows = alloc.etc.tolist()
    errors: list[str] = []
    failed = 0
    for client, k, _, status, reply in load.records:
        i = index(client, k)
        if i not in expected:
            batch = api.evaluate_allocation(alloc.mappings[i][None, :], alloc.etc, alloc.tau)
            expected[i] = batch.result_for(0).to_dict()
        found = _envelope_errors(status, reply)
        if not found:
            found = checks.check_allocation_result(
                json.loads(reply)["result"], expected[i], alloc.mappings[i].tolist(), etc_rows, alloc.tau
            )
        if found:
            failed += 1
            errors += [f"client {client} request {k}: {e}" for e in found]

    out = _served_result(setup_s, load, rss, failed, errors)
    if trace:
        from layers import served_alloc_layers

        sample = [bodies[index(c, k)] for c, k, *_ in load.records[:REPLAY_REQUESTS]]
        out["layers"] = _serve_layers(served_alloc_layers(sample), scrapes, load)
        out["layers"]["host.kernel_ms_mean"] = load.kernel_ms
    return out


def _envelope_errors(status: int, reply: bytes) -> list[str]:
    if status != 200:
        return [f"HTTP {status}: {reply[:200]!r}"]
    doc = json.loads(reply)
    if doc.get("ok") is not True or doc.get("failures") or doc.get("error"):
        return [f"reply not ok: {reply[:300]!r}"]
    return []


def _served_result(setup_s, load, rss: float, failed: int, errors: list[str]) -> dict:
    """The served figures, their CPU part scaled to the reference speed.

    A request's latency is mostly waiting (the batcher's deadline); its CPU
    part is taken as the server's and the load generator's CPU time over
    the phase, per request.  The phase's wall time is scaled with the mean
    latency, as a closed loop's throughput follows it.
    """
    latencies = [rec[2] for rec in load.records]
    cpu = load.cpu_s / len(latencies)
    scaled = [speed.MIXED.cpu_at_reference(t, cpu, load.kernel_ms) for t in latencies]
    log(
        f"measured: {latency_summary(latencies, load.elapsed_s)}, CPU {cpu * 1e3:.4f} ms "
        f"per request, reference kernel {load.kernel_ms:.4f} ms"
    )
    elapsed = load.elapsed_s * sum(scaled) / sum(latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "figures": {**latency_summary(scaled, elapsed), "peak_rss_mb": rss},
    }


def _serve_layers(replayed: dict, scrapes, load) -> dict:
    from served import server_figures

    figures = {**replayed, **server_figures(*scrapes)}
    client_ms = 1e3 * sum(rec[2] for rec in load.records) / len(load.records)
    server_ms = figures["serve.server_ms_mean"]
    figures["serve.outside_server_ms_mean"] = client_ms - server_ms
    figures["serve.queue_wait_ms_mean"] = server_ms - (
        figures["protocol.decode_ms_mean"]
        + figures["engine.call_ms_mean"]
        + figures["protocol.encode_ms_mean"]
    )
    return figures


# -- in-process workloads --------------------------------------------------------
class _Child:
    """One ``inproc.py`` process; ``ready_s`` is its launch-to-READY time.

    ``kernel_ms`` is the reference kernel's time (ms), the mean of one taken
    right before the launch and one right after READY, while the child
    waits for ``finish`` to let it go on.
    """

    def __init__(self, argv: list[str]) -> None:
        kernel_before = speed.MIXED.ms(SETUP_KERNELS)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "inproc.py"), *argv],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if line.strip() != "READY":
                raise RuntimeError(f"benchmark child did not get ready (said {line!r})")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0
        self.kernel_ms = (kernel_before + speed.MIXED.ms(SETUP_KERNELS)) / 2

    def finish(self) -> str:
        """Let the child go on; the rest of its stdout, once it has exited with status 0."""
        try:
            rest, _ = self.proc.communicate(input="GO\n", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("benchmark child ran past its timeout") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited with {self.proc.returncode}")
        return rest

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    argv += ["--trace", "1" if trace else "0"]
    _Child(argv + ["--setup-only"]).finish()  # primes the checkout, not counted
    children = []
    for _ in range(SETUPS - 1):
        children.append(_Child(argv + ["--setup-only"]))
        children[-1].finish()
    children.append(_Child(argv))
    out = json.loads(children[-1].finish().strip().splitlines()[-1])
    out["setup_s"] = [speed.MIXED.at_reference(c.ready_s, c.kernel_ms) for c in children]
    log(f"child set-up seconds, measured: {[round(c.ready_s, 3) for c in children]}")
    log(f"reference kernel ms around each: {[round(c.kernel_ms, 4) for c in children]}")
    return out


WORKLOADS = {
    "serve_alloc": serve_alloc,
    "population_quadratic_repeat": lambda *a: in_process("population_quadratic_repeat", *a),
    "population_quadratic_unique": lambda *a: in_process("population_quadratic_unique", *a),
    "curve_alloc": lambda *a: in_process("curve_alloc", *a),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GATING_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: the program's sources are missing ({SRC / 'repro'})")
        return 2
    sys.path.insert(0, str(SRC))  # the checks compare with the in-process program

    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    for error in out["errors"][:5]:
        log(f"FAILED {error}")
    if not tail_ok(out["attempted"]):
        log(f"warning: {out['attempted']} ops leave fewer than 10 samples beyond p90")
    figures = {"setup_s": statistics.median(out["setup_s"]), **out["figures"]}
    end_to_end = {
        name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    if args.trace:
        from layers import PER_LAYER_UNITS, complete

        print("traced end-to-end: " + json.dumps(end_to_end))
        layers = complete(out["layers"])
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = end_to_end
    correct = out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
