"""The served workloads: ``repro serve`` in its own process, closed-loop clients here.

The load generator is this one process with at most two threads, each a
keep-alive HTTP/1.1 connection that sends its next request only after the
previous reply arrived.  It speaks HTTP through the standard library, not
through the program's own client.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import speed
from common import ROOT, SETUP_KERNELS, log, peak_rss_mb, program_env

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")

#: longest a server may take from launch to its listening line
LAUNCH_TIMEOUT_S = 60.0

#: the one route the served workload posts to
ROUTE = "/evaluate"

#: units of the CPU times in /proc/<pid>/stat
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Connection:
    """One keep-alive connection to the server."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        reply = self._conn.getresponse()
        return reply.status, reply.read()

    def close(self) -> None:
        self._conn.close()


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, with default settings."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError("repro serve did not report a listening port")

    def cpu_s(self) -> float:
        """CPU seconds (user + system) the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self) -> None:
        """Terminate the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def launch_ready(warmup: Callable[[int], None]) -> tuple[ServerProcess, float, float]:
    """Launch a server and warm it up.

    Returns it with its set-up seconds and the reference kernel's time (ms),
    the mean of one taken right before the launch and one right after the
    warm-up, while the server is idle.
    """
    kernel_before = speed.MIXED.ms(SETUP_KERNELS)
    t0 = time.perf_counter()
    server = ServerProcess()
    try:
        warmup(server.port)
        seconds_to_ready = time.perf_counter() - t0
        kernel_ms = (kernel_before + speed.MIXED.ms(SETUP_KERNELS)) / 2
    except BaseException:
        server.stop()
        raise
    return server, seconds_to_ready, kernel_ms


@dataclass
class LoadResult:
    """What the closed-loop clients saw in the timed phase."""

    elapsed_s: float
    #: per request: (client, request number, latency seconds, status, reply body)
    records: list[tuple[int, int, float, int, bytes]]
    #: CPU seconds the server and the load generator spent in the phase
    cpu_s: float = 0.0
    #: the reference kernel's time (ms), mean of one taken before the phase
    #: and one after it
    kernel_ms: float = 0.0


def closed_loop(
    port: int, n_clients: int, seconds: float, body_for: Callable[[int, int], bytes]
) -> LoadResult:
    """Drive ``n_clients`` closed-loop clients for ``seconds``.

    ``body_for(client, k)`` gives client ``client``'s ``k``-th request body;
    bodies are prepared by the caller before the phase starts.
    """
    per_client: list[list[tuple[int, int, float, int, bytes]]] = [[] for _ in range(n_clients)]
    errors: list[BaseException] = []
    start = threading.Barrier(n_clients + 1)
    deadline = [0.0]

    def client(slot: int) -> None:
        conn = Connection(port)
        out = per_client[slot]
        try:
            start.wait()
            k = 0
            while time.perf_counter() < deadline[0]:
                body = body_for(slot, k)
                t0 = time.perf_counter()
                status, reply = conn.request("POST", ROUTE, body)
                out.append((slot, k, time.perf_counter() - t0, status, reply))
                k += 1
        except BaseException as err:  # reported by the caller after join
            errors.append(err)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    t_start = time.perf_counter()
    deadline[0] = t_start + seconds
    start.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t_start
    if errors:
        raise RuntimeError(f"a load client failed: {errors[0]!r}")
    records = [rec for out in per_client for rec in out]
    return LoadResult(elapsed_s=elapsed, records=records)


def scrape(port: int) -> tuple[dict, dict]:
    """``/healthz`` as JSON and ``/metrics`` as ``{series: value}``."""
    conn = Connection(port)
    try:
        status, health = conn.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        status, text = conn.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
    finally:
        conn.close()
    series = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return json.loads(health), series


def series_delta(before: dict, after: dict, prefix: str) -> float:
    """Sum over every series starting with ``prefix`` of its growth."""
    return sum(v - before.get(k, 0.0) for k, v in after.items() if k.startswith(prefix))


def server_figures(before: tuple[dict, dict], after: tuple[dict, dict]) -> dict:
    """The ``serve.*`` per-layer figures from two scrapes around the timed phase."""
    (h0, m0), (h1, m1) = before, after
    requests = h1["n_requests"] - h0["n_requests"]
    label = '{route="%s"}' % ROUTE
    count = series_delta(m0, m1, f"repro_serve_request_seconds_count{label}")
    total = series_delta(m0, m1, f"repro_serve_request_seconds_sum{label}")
    flushes = series_delta(m0, m1, 'repro_serve_batches_total{reason="deadline"}')
    return {
        "serve.server_ms_mean": total * 1e3 / count if count else 0.0,
        "serve.deadline_flushes_per_request": flushes / requests if requests else 0.0,
        "serve.engine_calls_per_request": (
            (h1["n_engine_calls"] - h0["n_engine_calls"]) / requests if requests else 0.0
        ),
    }


def run_served(
    *,
    setups: int,
    warmup: Callable[[int], None],
    n_clients: int,
    seconds: float,
    body_for: Callable[[int, int], bytes],
    trace: bool,
) -> tuple[list[float], LoadResult, float, tuple | None]:
    """Set the server up ``setups`` times, then time the last one.

    The first launch only primes the checkout (byte-code, file cache) and is
    not counted.  Returns the set-up seconds of each counted launch, scaled
    to the reference speed; the load result; the server's peak RSS in MiB
    and, when traced, the ``(/healthz, /metrics)`` scrapes before and after
    the timed phase.
    """
    server, *_ = launch_ready(warmup)
    server.stop()
    measured: list[float] = []
    kernels: list[float] = []
    for i in range(setups):
        server, seconds_to_ready, kernel_ms = launch_ready(warmup)
        measured.append(seconds_to_ready)
        kernels.append(kernel_ms)
        if i < setups - 1:
            server.stop()
    try:
        before = scrape(server.port) if trace else None
        kernel_before = speed.MIXED.ms(SETUP_KERNELS)
        cpu_before = server.cpu_s() + time.process_time()
        load = closed_loop(server.port, n_clients, seconds, body_for)
        load.cpu_s = server.cpu_s() + time.process_time() - cpu_before
        load.kernel_ms = (kernel_before + speed.MIXED.ms(SETUP_KERNELS)) / 2
        rss = peak_rss_mb(server.proc.pid)
        scrapes = (before, scrape(server.port)) if trace else None
    finally:
        server.stop()
    setup_s = [speed.MIXED.at_reference(s, k) for s, k in zip(measured, kernels)]
    log(f"server set-up seconds, measured: {[round(s, 3) for s in measured]}")
    log(f"reference kernel ms around each: {[round(k, 4) for k in kernels]}")
    return setup_s, load, rss, scrapes
