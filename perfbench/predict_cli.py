"""The ``predict-cli`` workload: back-to-back ``repro predict`` processes.

Each operation is one process predicting the target's throughput on an
8-CPU SKU from its 2-CPU runs, with the default configuration (RFE
LogReg top-7, Hist-FP + L2,1, pairwise SVM).  *Cold* processes run
without cache flags; *warm* ones pass ``--distance-cache`` and
``--fit-cache`` directories that set-up filled.  Interpreter start-up
and ``import repro.cli`` dominate the wall time, so start-up changes
move this workload while distance-kernel changes should not.
"""

from __future__ import annotations

import sys
import time

import common

SOURCE_CPUS = 2
TARGET_CPUS = 8
SETUP_REPEATS = 3


def write_inputs(seed: int, directory) -> dict:
    """Reference corpus and target runs drawn from ``seed``, as ``.npz``."""
    import numpy as np
    from repro.workloads import SKU, run_experiments, workload_by_name

    rng = np.random.default_rng([seed, 0xC1])
    ref_seed, target_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    directory.mkdir(parents=True, exist_ok=True)
    references = run_experiments(
        [workload_by_name(n) for n in ("tpcc", "twitter", "tpch")],
        [SKU(cpus=c, memory_gb=32.0) for c in (SOURCE_CPUS, TARGET_CPUS)],
        terminals_for=lambda w: (1,) if w.name == "tpch" else (8,),
        n_runs=2, duration_s=1200.0, random_state=ref_seed,
    )
    target = run_experiments(
        [workload_by_name("ycsb")], [SKU(cpus=SOURCE_CPUS, memory_gb=32.0)],
        terminals_for=lambda w: (32,), n_runs=2, duration_s=1200.0,
        random_state=target_seed,
    )
    paths = {
        "references": directory / "references.npz",
        "target": directory / "target.npz",
        "distance_cache": directory / "distance-cache",
        "fit_cache": directory / "fit-cache",
    }
    references.save_npz(paths["references"])
    target.save_npz(paths["target"])
    return paths


def predict_argv(paths: dict, warm: bool) -> list[str]:
    argv = [
        sys.executable, "-m", "repro.cli", "predict",
        "--references", str(paths["references"]),
        "--target", str(paths["target"]),
        "--source-cpus", str(SOURCE_CPUS),
        "--target-cpus", str(TARGET_CPUS),
    ]
    if warm:
        argv += [
            "--distance-cache", str(paths["distance_cache"]),
            "--fit-cache", str(paths["fit_cache"]),
        ]
    return argv


def reference_output(paths: dict) -> str:
    """What ``repro predict`` must print: the in-process pipeline's report."""
    from repro.core import PipelineConfig, WorkloadPredictionPipeline
    from repro.workloads import SKU, ExperimentRepository

    report = WorkloadPredictionPipeline(PipelineConfig()).predict_scaling(
        ExperimentRepository.load_npz(paths["references"]),
        ExperimentRepository.load_npz(paths["target"]),
        SKU(cpus=SOURCE_CPUS, memory_gb=32.0),
        SKU(cpus=TARGET_CPUS, memory_gb=32.0),
    )
    return report.summary() + "\n"


def setup(ctx, index: int) -> tuple[dict, float]:
    """Write the inputs and fill the warm caches; returns (paths, seconds)."""
    started = time.perf_counter()
    paths = write_inputs(ctx.seed, ctx.work / f"predict-{index}")
    done = common.run_child(
        predict_argv(paths, warm=True), ctx.env, ctx.work / "fill",
        timeout=ctx.remaining(),
    )
    if done.returncode != 0:
        raise common.BenchError(
            f"cache-filling repro predict exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return paths, time.perf_counter() - started


def run_op(ctx, paths, kind: str, expected: str, index: int, tracer=None) -> dict:
    tracer = tracer or common.NullTracer()
    with tracer.span(f"cli.predict_{kind}", request_id=index):
        done = common.run_child(
            predict_argv(paths, warm=kind == "warm"), ctx.env,
            ctx.work / "ops" / str(index), timeout=ctx.remaining(),
        )
    ok = done.returncode == 0 and done.stdout == expected
    if not ok:
        common.log(
            f"predict-cli {kind} #{index}: exit {done.returncode}, "
            f"stdout {done.stdout!r}, stderr {done.stderr[-1000:]!r}"
        )
    return {"kind": kind, "ms": done.wall_s * 1000.0, "ok": ok, "rss_kb": done.maxrss_kb}


def measure(ctx) -> dict:
    setups = []
    for index in range(SETUP_REPEATS):
        paths, seconds = setup(ctx, index)
        setups.append(seconds)
    expected = reference_output(paths)
    ops = []
    started = time.perf_counter()
    while True:
        for kind in ("cold", "warm"):
            ops.append(run_op(ctx, paths, kind, expected, len(ops)))
        if time.perf_counter() - started >= ctx.seconds:
            break
    elapsed = time.perf_counter() - started
    ok = [op for op in ops if op["ok"]]
    return common.end_to_end(
        ops,
        [op["ms"] for op in ok if op["kind"] == "cold"],
        [op["ms"] for op in ok if op["kind"] == "warm"],
        setups=setups,
        elapsed_s=elapsed,
        rss_kb=max(op["rss_kb"] for op in ops),
    )


def _timed_children(ctx, argv, count: int, name: str) -> list[float]:
    times = []
    for index in range(count):
        done = common.run_child(
            argv, ctx.env, ctx.work / name / str(index), timeout=ctx.remaining()
        )
        if done.returncode != 0:
            raise common.BenchError(f"{argv} exited {done.returncode}: {done.stderr[-1000:]}")
        times.append(done.wall_s * 1000.0)
    return times


def probe(ctx, overhead: bool) -> dict:
    """Start-up, load and pipeline-stage layers of one ``repro predict``."""
    from repro.core import PipelineConfig, WorkloadPredictionPipeline
    from repro.workloads import SKU, ExperimentRepository

    tracer = common.Tracer()
    paths, _ = setup(ctx, 0)
    expected = reference_output(paths)
    with tracer.span("cli.interpreter"):
        interpreter = _timed_children(ctx, [sys.executable, "-c", "pass"], 5, "interp")
    with tracer.span("cli.import"):
        imports = _timed_children(
            ctx, [sys.executable, "-c", "import repro.cli"], 3, "import"
        )
    stages = []
    for _ in range(3):
        with tracer.span("workloads.repository_load"):
            references = ExperimentRepository.load_npz(paths["references"])
            target = ExperimentRepository.load_npz(paths["target"])
        with tracer.span("core.predict_scaling"):
            report = WorkloadPredictionPipeline(PipelineConfig()).predict_scaling(
                references, target,
                SKU(cpus=SOURCE_CPUS, memory_gb=32.0),
                SKU(cpus=TARGET_CPUS, memory_gb=32.0),
            )
        stages.append(report.manifest.stage_timings_s)
    ops = [run_op(ctx, paths, kind, expected, i, tracer) for i, kind in enumerate(("cold", "warm"))]
    result = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "layers": {
            "cli.interpreter_ms": common.median(interpreter),
            "cli.import_ms": common.median(imports),
            "workloads.repository_load_ms": common.median(
                tracer.durations_ms("workloads.repository_load")
            ),
            "core.select_ms": common.median(s["select_features"] * 1e3 for s in stages),
            "core.rank_ms": common.median(s["rank_similarity"] * 1e3 for s in stages),
            "core.predict_ms": common.median(s["predict_scaling"] * 1e3 for s in stages),
        },
        "overhead_ms": None,
    }
    if overhead:
        plain = [run_op(ctx, paths, "cold", expected, 10 + i) for i in range(5)]
        traced = [run_op(ctx, paths, "cold", expected, 20 + i, tracer) for i in range(5)]
        result["overhead_ms"] = common.median(
            op["ms"] for op in traced
        ) - common.median(op["ms"] for op in plain)
        result["attempted"] += len(plain) + len(traced)
        result["failed"] += sum(not op["ok"] for op in plain + traced)
    tracer.write(ctx.trace_path("predict-cli"))
    return result
