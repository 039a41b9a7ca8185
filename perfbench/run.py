"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {study,predict-cli,serve-dtw} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is used from ``src/``
through its public entry points only: the ``repro`` CLI, the HTTP
endpoints of ``repro serve`` and documented library functions.

With ``--trace 0`` the run measures the workload for ``--seconds``
seconds and prints the end-to-end metrics.  With ``--trace 1`` it runs
one traced round of every workload, because each per-layer metric
belongs to one workload, and prints every per-layer metric plus the
tracing overhead of the named workload.  Either way the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common

WORKLOADS = ("study", "predict-cli", "serve-dtw")
#: Hard ceiling on one run; children are killed past it.
RUN_BUDGET_S = 170.0


class Context:
    """What one run hands to its workload: seed, length, directories."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        common.OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(
            tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=common.OUT_DIR)
        )
        self.tmp = self.work / "tmp"
        self.tmp.mkdir()
        self.env = common.program_env(self.tmp)
        self.children = []

    def remaining(self) -> float:
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - self.started))

    def trace_path(self, name: str) -> Path:
        return common.OUT_DIR / "traces" / f"{self.workload}-seed{self.seed}-{name}.json"

    def close(self) -> None:
        """Stop every child still running and remove the work directory."""
        for proc in self.children:
            if proc.returncode is None and proc.poll() is None:
                common.stop_process(proc, timeout=10.0)
        shutil.rmtree(self.work, ignore_errors=True)


def _modules():
    import predict_cli
    import serve_dtw
    import study

    return {"study": study, "predict-cli": predict_cli, "serve-dtw": serve_dtw}


def traced(ctx: Context) -> dict:
    """Every workload's traced round; overhead priced on ``ctx.workload``."""
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    attempted = failed = 0
    metrics = {}
    overhead = None
    for name, module in _modules().items():
        probe = module.probe(ctx, overhead=name == ctx.workload)
        attempted += probe["attempted"]
        failed += probe["failed"]
        for key, value in probe["layers"].items():
            metrics[key] = common.metric(value, units[key])
        if name == ctx.workload:
            overhead = probe["overhead_ms"]
    metrics["obs.trace_overhead_ms"] = common.metric(overhead, "ms")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {common.SRC}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.SRC))
    for name in common.PROGRAM_ENV_VARS:
        os.environ.pop(name, None)
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ctx = Context(args.workload, args.seed, args.seconds)
    os.environ["TMPDIR"] = str(ctx.tmp)
    tempfile.tempdir = str(ctx.tmp)
    try:
        if args.trace:
            result = traced(ctx)
        else:
            result = _modules()[args.workload].measure(ctx)
    finally:
        ctx.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
