"""Small helpers shared by ``run.py`` and its child process ``inproc.py``."""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

#: the repository checkout the benchmark runs in (parent of this directory)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: timed ops per run must leave at least this many samples beyond p90
MIN_TAIL_SAMPLES = 10

#: reference kernels timed right before and right after each set-up launch
SETUP_KERNELS = 50


def program_env() -> dict[str, str]:
    """Environment of every process that runs the program.

    The program is imported from the checkout's ``src``; ``REPRO_BACKEND``
    is dropped so the program runs with its default settings.
    """
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of an already-sorted sample."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_summary(latencies_s: list[float], elapsed_s: float) -> dict[str, float]:
    """``ops_per_s`` and the p50/p90 latency of one timed phase."""
    ordered = sorted(latencies_s)
    return {
        "ops_per_s": len(ordered) / elapsed_s,
        "latency_p50_ms": percentile(ordered, 0.5) * 1e3,
        "latency_p90_ms": percentile(ordered, 0.9) * 1e3,
    }


def tail_ok(n_ops: int) -> bool:
    """Whether ``n_ops`` samples leave ``MIN_TAIL_SAMPLES`` beyond p90."""
    return n_ops - int(0.9 * n_ops) - 1 >= MIN_TAIL_SAMPLES


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
    return int(match.group(1)) / 1024.0


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
