"""Shared plumbing: paths, child processes, tracing, statistics.

Everything the benchmark writes goes under ``.perfbench/`` in the
checkout (work directories, the ``TMPDIR`` handed to child processes,
trace files), so a run reads and writes nothing outside its checkout.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Environment variables through which the program picks up caches,
#: ledgers or worker counts on its own; the benchmark passes every
#: cache explicitly and no worker count, so these are cleared.
PROGRAM_ENV_VARS = (
    "REPRO_CACHE_DIR",
    "REPRO_DISTANCE_CACHE",
    "REPRO_FIT_CACHE",
    "REPRO_LEDGER",
    "REPRO_JOBS",
    "REPRO_EXEC_ARRAYS",
    "REPRO_FAULT_CLASS",
)


class BenchError(Exception):
    """A run that cannot produce a result (bad checkout, dead server)."""


def program_env(tmp_dir: Path) -> dict:
    """Environment for child processes that run the program."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    return env


# -- statistics ------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no successful samples to take a median of")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples for a percentile")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(ops, cold_ms, warm_ms, *, setups, elapsed_s, rss_kb, correct=True):
    """The untraced result: every operation counted, successes timed.

    ``ops`` are dicts with an ``ok`` flag; ``cold_ms``/``warm_ms`` are the
    latencies of the successful operations that each median covers.
    """
    succeeded = sum(op["ok"] for op in ops)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - succeeded,
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "cold_ms": metric(median(cold_ms), "ms"),
            "warm_ms": metric(median(warm_ms), "ms"),
            "ops_per_s": metric(succeeded / elapsed_s, "1/s"),
            "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        },
    }


# -- child processes ---------------------------------------------------------------
class Completed:
    """Outcome of one child process: exit code, output, wall, peak RSS."""

    def __init__(self, returncode, stdout, stderr, wall_s, maxrss_kb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for ``proc`` with ``wait4``; returns ``(exit code, maxrss KB)``.

    ``wait4`` is what yields the child's own peak RSS.  A timer kills
    the child if it outlives ``timeout``, so the wait always ends.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_child(argv, env, out_dir: Path, *, timeout: float = 120.0) -> Completed:
    """Run one program process to completion, timing it from spawn to exit.

    Output goes to files so that nothing but the process itself runs
    between the spawn and the ``wait4`` that ends the timing.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "stdout.txt"
    err_path = out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL
        )
        code, maxrss = reap(proc, timeout)
        wall = time.perf_counter() - started
    return Completed(
        code,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        wall,
        maxrss,
    )


def stop_process(proc: subprocess.Popen, timeout: float = 30.0):
    """SIGTERM ``proc`` and reap it; SIGKILL when it does not exit.

    Returns ``(exit code, maxrss KB)``; never leaves the child running.
    """
    if proc.returncode is not None:
        return proc.returncode, 0
    try:
        proc.send_signal(signal.SIGTERM)
    except ProcessLookupError:
        pass
    return reap(proc, timeout)


# -- tracing -------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans are recorded around the benchmark's own calls into the
    program's modules; nothing inside the program is patched.  A span's
    self time is its duration minus the time its child spans cover.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request_id=None):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "request_id": request_id
            if request_id is not None
            else (stack[-1]["request_id"] if stack else None),
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def self_ms(self, name: str, spans=None) -> float:
        """Total self time of every span called ``name``, in ms."""
        spans = self.spans if spans is None else spans
        child_ns: dict[int, int] = {}
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = (
                    child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
                )
        total = 0
        for s in spans:
            if s["name"] == name:
                total += s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        return total / 1e6

    def durations_ms(self, name: str) -> list[float]:
        """Wall time of every span called ``name``, in ms."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["start_ns"])
        path.write_text(json.dumps(ordered))


class NullTracer:
    """The untraced mode: spans cost one attribute lookup and a call."""

    spans: list = []

    def span(self, name: str, request_id=None):
        return nullcontext()


def counter_values(names) -> dict:
    """Current values of the program's in-process counters."""
    from repro.obs.metrics import get_metrics

    registry = get_metrics()
    return {
        name: (registry.counter(name).value if name in registry else 0.0)
        for name in names
    }


def counter_deltas(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
