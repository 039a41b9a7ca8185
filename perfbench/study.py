"""The ``study`` workload: the paper's path in one process.

One operation is one *pass*: build the corpora (Sections 4/5 corpus,
the Table 4 grid, the Section 6 scaling corpus), then a slice of each
paper table — Table 3 feature selection scored by 1-NN subset accuracy,
Table 4 similarity over Hist-FP/Phase-FP norms and the MTS elastic
measures, Table 6 cross-validated scaling strategies.  A round is a
*cold* pass over empty corpus, distance and fit cache directories
followed by identical *warm* passes over the caches the cold pass
filled.

The program runs in a child process (this file run as a script), so the
child's peak RSS is the program's and set-up (interpreter start, library
import, input generation) can be repeated from scratch.  The child talks
to the parent in JSON lines on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common
import oracles

#: Table 3 slice: filters, an embedded method, RFE and one SFS.
T3_STRATEGIES = ("Variance", "fANOVA", "RandomForest", "RFE LogReg", "Fw SFS Linear")
T3_TOP_K = 5
#: Table 4 slice: norms on the fingerprints, elastic measures on MTS.
T4_NORMS = ("L2,1", "L1,1")
T4_ELASTIC = ("Dependent-DTW", "Dependent-LCSS", "Independent-DTW")
#: The registry's LCSS match tolerance (``repro.similarity.measures``).
LCSS_EPSILON = 0.15
#: Table 6 slice: (workload, terminals) settings, all six strategies.
T6_SETTINGS = (("tpcc", 8), ("tpch", 1))
T6_FOLDS = 3
#: Elastic entries per measure re-derived by the naive oracles.
ORACLE_SAMPLES = 6

#: Corpus sizes of a measured pass.
SIZE = {"runs": 2, "duration_s": 900.0, "paper_sub": 3, "grid_sub": 3, "series": 3}

#: Program counters the traced pass reads (deltas per pass).
COUNTERS = (
    "corpus_cache.hits_total",
    "similarity.pairs_computed",
    "distance_cache.hits_total",
    "distance_cache.misses_total",
    "ml.fits_total",
    "fit_cache.hits_total",
)


def study_inputs(seed: int) -> dict:
    """Seeds of every corpus build and model fit, drawn from ``seed``."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x57])
    keys = ("paper", "table4", "scaling", "models")
    return {key: int(value) for key, value in zip(keys, rng.integers(0, 2**31, 4))}


def _terminals(workload):
    return (1,) if workload.name in ("tpch", "tpcds") else (8,)


def run_pass(inputs: dict, caches: dict, tracer) -> dict:
    """One pass over the three table slices; returns every output."""
    from repro.features import (
        RecursiveFeatureElimination,
        knn_feature_subset_accuracy,
        strategy_registry,
    )
    from repro.prediction import (
        STRATEGY_NAMES,
        build_scaling_dataset,
        evaluate_pairwise_strategy,
        evaluate_single_strategy,
    )
    from repro.similarity import (
        RepresentationBuilder,
        distance_matrix,
        knn_accuracy,
        ranking_mean_average_precision,
        ranking_ndcg,
    )
    from repro.similarity.evaluation import representation_matrices
    from repro.similarity.measures import get_measure
    from repro.workloads import (
        SKU,
        expand_subexperiments,
        paper_corpus,
        run_experiments,
        scaling_corpus,
        workload_by_name,
    )
    from repro.workloads.features import ALL_FEATURES, RESOURCE_FEATURES

    out: dict = {"t3": {}, "t4": {}, "t6": {}, "matrices": {}}
    with tracer.span("workloads.simulate"):
        corpus = paper_corpus(
            cpus=16, n_runs=1, n_subexperiments=SIZE["paper_sub"],
            duration_s=SIZE["duration_s"], random_state=inputs["paper"],
            cache=caches["corpus"],
        )
        grid = run_experiments(
            [workload_by_name(n) for n in ("tpcc", "tpch", "twitter")],
            [SKU(cpus=16, memory_gb=32.0)],
            terminals_for=_terminals, n_runs=SIZE["runs"],
            duration_s=SIZE["duration_s"], random_state=inputs["table4"],
            cache=caches["corpus"],
        )
        scaling = scaling_corpus(
            ["tpcc", "tpch"],
            skus=[SKU(cpus=c, memory_gb=32.0) for c in (2, 8)],
            terminals_for=_terminals, n_runs=SIZE["runs"],
            duration_s=SIZE["duration_s"], random_state=inputs["scaling"],
            cache=caches["corpus"],
        )
    table4 = expand_subexperiments(grid, n_subexperiments=SIZE["grid_sub"])

    # -- Table 3: selection, then 1-NN accuracy of each top-k subset ----------
    X = corpus.feature_matrix()
    labels = corpus.labels()
    with tracer.span("similarity.represent"):
        builder = RepresentationBuilder().fit(corpus)
    registry = strategy_registry()
    for name in T3_STRATEGIES:
        selector = registry[name]()
        if hasattr(selector, "fit_cache"):
            selector.fit_cache = caches["fit"]
        with tracer.span("features.select"):
            selector.fit(X, labels)
        subset = [int(i) for i in selector.top_k(T3_TOP_K)]
        with tracer.span("features.subset_eval"):
            accuracy = knn_feature_subset_accuracy(
                corpus, subset, builder=builder, distance_cache=caches["dist"]
            )
        out["t3"][name] = {
            "features": [ALL_FEATURES[i] for i in subset],
            "accuracy": accuracy,
        }

    # -- Table 4: similarity mechanisms ---------------------------------------
    labels4 = [r.workload_name for r in table4]
    types4 = [r.workload_type for r in table4]
    resource_idx = [ALL_FEATURES.index(f) for f in RESOURCE_FEATURES]
    rfe = RecursiveFeatureElimination("logreg", fit_cache=caches["fit"])
    with tracer.span("features.select"):
        rfe.fit(table4.feature_matrix()[:, resource_idx], labels4)
    mts_features = [RESOURCE_FEATURES[i] for i in rfe.top_k(3)]
    with tracer.span("similarity.represent"):
        builder4 = RepresentationBuilder().fit(table4)
        representations = {
            "hist": representation_matrices(table4, builder4, "hist"),
            "phase": representation_matrices(table4, builder4, "phase"),
            "mts": representation_matrices(
                table4, builder4, "mts", features=mts_features
            ),
        }
    plan = [(rep, m) for rep in ("hist", "phase") for m in T4_NORMS]
    plan += [("mts", m) for m in T4_ELASTIC]
    for rep, measure in plan:
        with tracer.span("similarity.distance"):
            D = distance_matrix(
                representations[rep], get_measure(measure), cache=caches["dist"]
            )
        with tracer.span("similarity.evaluate"):
            scores = {
                "mAP": ranking_mean_average_precision(D, labels4),
                "NDCG": ranking_ndcg(D, labels4, types4),
                "acc": knn_accuracy(D, labels4),
            }
        out["t4"][f"{rep}/{measure}"] = scores
        out["matrices"][f"{rep}/{measure}"] = D
    out["mts_features"] = mts_features

    # -- Table 6: cross-validated scaling strategies ---------------------------
    for workload, terminals in T6_SETTINGS:
        with tracer.span("prediction.dataset"):
            dataset = build_scaling_dataset(
                scaling, workload, terminals, n_series=SIZE["series"],
                random_state=inputs["models"],
            )
        for strategy in STRATEGY_NAMES:
            with tracer.span("prediction.cv"):
                pairwise = evaluate_pairwise_strategy(
                    dataset, strategy, cv=T6_FOLDS,
                    random_state=inputs["models"], fit_cache=caches["fit"],
                )
                single = evaluate_single_strategy(
                    dataset, strategy, cv=T6_FOLDS,
                    random_state=inputs["models"], fit_cache=caches["fit"],
                )
            out["t6"][f"{workload}-{terminals}/{strategy}"] = {
                "pairwise": pairwise.mean_nrmse,
                "single": single.mean_nrmse,
            }
    out["_inputs"] = (corpus, builder, table4, representations)
    return out


# -- correctness checks ------------------------------------------------------------
def same(a, b) -> bool:
    """Exact equality of pass outputs (NaN equal to NaN)."""
    import numpy as np

    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(same(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def comparable(out: dict) -> dict:
    return {k: v for k, v in out.items() if not k.startswith("_")}


def check_pass(out: dict, seed: int) -> list[str]:
    """Checks of one cold pass against the oracles and method properties."""
    import numpy as np
    from repro.similarity.evaluation import representation_matrices

    faults: list[str] = []
    corpus, builder, table4, representations = out["_inputs"]
    labels4 = [r.workload_name for r in table4]
    rng = np.random.default_rng([seed, 0x0C])
    n = len(table4)
    for key, D in out["matrices"].items():
        faults += [f"{key}: {f}" for f in oracles.matrix_faults(D)]
        if oracles.knn_accuracy(D, labels4) != out["t4"][key]["acc"]:
            faults.append(f"{key}: 1-NN accuracy differs from argmin")
        rep, measure = key.split("/")
        mats = representations[rep]
        if measure in oracles.NORM_ORACLES:
            norm = oracles.NORM_ORACLES[measure]
            for i in range(n):
                for j in range(i + 1, n):
                    if not oracles.close(D[i, j], norm(mats[i], mats[j])):
                        faults.append(f"{key}[{i},{j}] differs from numpy formula")
        else:
            for _ in range(ORACLE_SAMPLES):
                i, j = (int(v) for v in rng.choice(n, 2, replace=False))
                if measure == "Dependent-DTW":
                    expect = oracles.dtw_dependent(mats[i], mats[j])
                elif measure == "Independent-DTW":
                    expect = oracles.dtw_independent(mats[i], mats[j])
                else:
                    expect = oracles.lcss_dependent(mats[i], mats[j], LCSS_EPSILON)
                if not oracles.close(D[i, j], expect):
                    faults.append(
                        f"{key}[{i},{j}] = {D[i, j]!r}, naive recurrence {expect!r}"
                    )
    labels = corpus.labels()
    for key, row in out["t3"].items():
        mats = representation_matrices(
            corpus, builder, "hist", features=row["features"]
        )
        D = oracles.distance_table(mats, oracles.l21)
        lo, hi = oracles.knn_bounds(D, labels)
        hits = round(row["accuracy"] * len(labels))
        if not lo <= hits <= hi:
            faults.append(
                f"Table 3 {key}: {hits} 1-NN hits, argmin gives {lo}..{hi}"
            )
    for key, row in out["t6"].items():
        for context, value in row.items():
            if not (math.isfinite(value) and value >= 0):
                faults.append(f"Table 6 {key} {context}: NRMSE {value!r}")
    return faults


# -- the child process ---------------------------------------------------------------
def import_program() -> None:
    """Import every module a pass uses, so set-up covers program load."""
    import repro.features  # noqa: F401
    import repro.prediction  # noqa: F401
    import repro.similarity  # noqa: F401
    import repro.similarity.evaluation  # noqa: F401
    import repro.workloads  # noqa: F401


def prime_program() -> None:
    """Pay the program's one-time lazy initialisation before timing.

    The first mixed-model (LMM) fit in a process costs about a second
    more than every later one; without this the first cold pass of a
    run would be an outlier.  A small cross-validation on a tiny corpus
    absorbs it.
    """
    from repro.prediction import build_scaling_dataset, evaluate_pairwise_strategy
    from repro.workloads import SKU, scaling_corpus

    corpus = scaling_corpus(
        ["tpcc"], skus=[SKU(cpus=2, memory_gb=32.0), SKU(cpus=8, memory_gb=32.0)],
        terminals_for=_terminals, n_runs=1, duration_s=300.0, random_state=1,
    )
    dataset = build_scaling_dataset(corpus, "tpcc", 8, n_series=3, random_state=1)
    evaluate_pairwise_strategy(dataset, "LMM", cv=T6_FOLDS, random_state=1)


def fresh_caches(work: Path, round_index: int) -> dict:
    base = work / f"round-{round_index}"
    shutil.rmtree(base, ignore_errors=True)
    return {name: str(base / name) for name in ("corpus", "dist", "fit")}


#: A round: one cold pass, then warm passes over the caches it filled.
#: The warm pass is short and the host's speed wanders, so it gets two
#: samples per round.
ROUND = ("cold", "warm", "warm")


def run_round(inputs, work, index, tracer, seed) -> tuple[list[dict], list]:
    """A cold pass, then warm passes over the same cache directories."""
    caches = fresh_caches(work, index)
    ops, outs = [], []
    for kind in ROUND:
        with tracer.span("study.pass", request_id=f"{index}-{kind}"):
            started = time.perf_counter()
            out = run_pass(inputs, caches, tracer)
            ms = (time.perf_counter() - started) * 1000.0
        ops.append({"kind": kind, "ms": ms, "ok": True})
        outs.append(out)
    return ops, outs


def check_round(ops, outs, seed) -> list[str]:
    """Oracle checks on the cold pass, exact equality on the warm ones."""
    faults = check_pass(outs[0], seed)
    if faults:
        ops[0]["ok"] = False
    for op, out in zip(ops[1:], outs[1:]):
        if not same(comparable(outs[0]), comparable(out)):
            op["ok"] = False
            faults.append("warm pass differs from cold pass")
    return faults


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "probe"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--work")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    work = Path(args.work)
    import_program()
    inputs = study_inputs(args.seed)
    prime_program()
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        summary = measure_rounds(inputs, work, args.seed, args.seconds)
    else:
        summary = probe_round(inputs, work, args.seed, args.overhead)
        summary["tracer"].write(Path(args.trace_out))
        del summary["tracer"]
    emit({"event": "done", **summary})
    return 0


def emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def measure_rounds(inputs, work, seed, seconds) -> dict:
    """Whole rounds until ``seconds`` of passes; checks are not timed."""
    tracer = common.NullTracer()
    ops, faults = [], []
    started = time.perf_counter()
    checking = 0.0
    index = 0
    while True:
        round_ops, outs = run_round(inputs, work, index, tracer, seed)
        check_started = time.perf_counter()
        faults += check_round(round_ops, outs, seed)
        shutil.rmtree(work / f"round-{index}", ignore_errors=True)
        checking += time.perf_counter() - check_started
        ops += round_ops
        index += 1
        if time.perf_counter() - started - checking >= seconds:
            break
    return {
        "ops": ops,
        "elapsed_s": time.perf_counter() - started - checking,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "faults": faults,
    }


def probe_round(inputs, work, seed, overhead: bool) -> dict:
    """One traced round (plus one untraced round to price the tracing)."""
    plain = None
    if overhead:
        plain_ops, _ = run_round(inputs, work, 0, common.NullTracer(), seed)
        plain = {op["kind"]: op["ms"] for op in reversed(plain_ops)}
    tracer = common.Tracer()
    counters = {}
    caches = fresh_caches(work, 1)
    ops, outs = [], []
    for kind in ("cold", "warm"):
        before = common.counter_values(COUNTERS)
        with tracer.span("study.pass", request_id=kind):
            started = time.perf_counter()
            outs.append(run_pass(inputs, caches, tracer))
            ops.append(
                {"kind": kind, "ms": (time.perf_counter() - started) * 1000.0, "ok": True}
            )
        counters[kind] = common.counter_deltas(
            before, common.counter_values(COUNTERS)
        )
    faults = check_round(ops, outs, seed)
    by_kind = {
        kind: [s for s in tracer.spans if s["request_id"] == kind]
        for kind in ("cold", "warm")
    }
    layers = {
        "workloads.simulate_ms": tracer.self_ms("workloads.simulate", by_kind["cold"]),
        "workloads.corpus_cache_hits": counters["warm"]["corpus_cache.hits_total"],
        "features.select_ms": tracer.self_ms("features.select", by_kind["cold"]),
        "features.subset_eval_ms": tracer.self_ms("features.subset_eval"),
        "similarity.represent_ms": tracer.self_ms("similarity.represent"),
        "similarity.distance_ms": tracer.self_ms("similarity.distance", by_kind["cold"]),
        "similarity.pairs_computed": counters["warm"]["similarity.pairs_computed"],
        "similarity.distance_cache_hits": counters["warm"]["distance_cache.hits_total"],
        "similarity.distance_cache_misses": counters["warm"]["distance_cache.misses_total"],
        "prediction.cv_ms": tracer.self_ms("prediction.cv"),
        "ml.fits": counters["cold"]["ml.fits_total"],
        "ml.fit_cache_hits": counters["warm"]["fit_cache.hits_total"],
    }
    result = {"ops": ops, "faults": faults, "layers": layers, "tracer": tracer}
    if plain is not None:
        result["overhead_ms"] = sum(op["ms"] - plain[op["kind"]] for op in ops) / len(ops)
    return result


# -- the parent side -------------------------------------------------------------------
SETUP_REPEATS = 3


class _Child:
    """One study child process, read line by line."""

    def __init__(self, ctx, mode: str, *extra: str):
        self.ctx = ctx
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--mode", mode,
             "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
             "--work", str(ctx.work / "study"), *extra],
            env=ctx.env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True,
        )
        ctx.children.append(self.proc)

    def wait_ready(self) -> float:
        for line in self.proc.stdout:
            if line.startswith('{"event": "ready"'):
                return time.perf_counter() - self.started
        raise common.BenchError("study child exited before it was ready")

    def finish(self) -> dict:
        lines = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        code, _ = common.reap(self.proc, self.ctx.remaining())
        if code != 0:
            raise common.BenchError(f"study child exited with {code}")
        done = [json.loads(l) for l in lines if l.startswith('{"event": "done"')]
        return done[-1] if done else {}


def _setups(ctx) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS - 1):
        child = _Child(ctx, "setup")
        times.append(child.wait_ready())
        child.finish()
    return times


def measure(ctx) -> dict:
    """The untraced run: every end-to-end metric."""
    setups = _setups(ctx)
    child = _Child(ctx, "measure")
    setups.append(child.wait_ready())
    summary = child.finish()
    ops = summary["ops"]
    for fault in summary["faults"]:
        common.log(f"study: {fault}")
    ok = [op for op in ops if op["ok"]]
    return common.end_to_end(
        ops,
        [op["ms"] for op in ok if op["kind"] == "cold"],
        [op["ms"] for op in ok if op["kind"] == "warm"],
        setups=setups,
        elapsed_s=summary["elapsed_s"],
        rss_kb=summary["rss_kb"],
    )


def probe(ctx, overhead: bool) -> dict:
    """The traced round: this workload's per-layer metrics."""
    extra = ["--trace-out", str(ctx.trace_path("study"))]
    if overhead:
        extra.append("--overhead")
    child = _Child(ctx, "probe", *extra)
    child.wait_ready()
    summary = child.finish()
    for fault in summary["faults"]:
        common.log(f"study: {fault}")
    ops = summary["ops"]
    return {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "layers": summary["layers"],
        "overhead_ms": summary.get("overhead_ms"),
    }


if __name__ == "__main__":
    sys.exit(child_main())
