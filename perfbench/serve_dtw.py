"""The ``serve-dtw`` workload: one ``repro serve`` process under load.

The server ranks with the MTS representation and Dependent-DTW and has
no disk caches.  Two closed-loop clients, each on its own keep-alive
connection, stand for capacity-planning scripts that wait for every
answer.  Every round a client generates four distinct targets, one per
catalog workload family, so nearest references differ and no two cold
requests share a digest.  Each target goes to ``/v1/predict``; one per
round (rotating through the families) also goes to ``/v1/rank``.  The
round then repeats all five requests, which the response cache answers:
those are the *warm* requests.

This is the only workload that exercises the batcher, the pruned
``nearest_group`` cascade, the multi-query fan-out and the in-memory
hit path, and it never touches the disk caches that dominate ``study``.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import oracles

FAMILIES = ("tpcc", "twitter", "tpch", "ycsb")
SOURCE_SKU = "2cpu-32gb"
TARGET_SKU = "8cpu-32gb"
CLIENTS = 2
SETUP_REPEATS = 3
WARM_BURST = 200
#: Simulated length of every reference and target run.
DURATION_S = 600.0
TARGET_TERMINALS = (4, 8, 32)
REFERENCE_SEED = 2025
SHM_DIR = Path("/dev/shm")
BOOT_LINE = re.compile(r"on http://[0-9.]+:(\d+)")


def _terminals(workload):
    return (1,) if workload.name == "tpch" else (8,)


def write_references(path: Path):
    """Four reference workloads on the source and target SKUs.

    The reference corpus is the server's fixed catalogue and does not
    depend on the seed, which draws the traffic.  How much of the
    corpus the pruned nearest-reference search can skip depends on the
    corpus, so a corpus drawn per seed would make one run's whole cold
    median move with it (cold medians of 196..307 ms over ten seeds).
    """
    from repro.workloads import SKU, run_experiments, workload_by_name

    references = run_experiments(
        [workload_by_name(n) for n in FAMILIES],
        [SKU(cpus=2, memory_gb=32.0), SKU(cpus=8, memory_gb=32.0)],
        terminals_for=_terminals, n_runs=1, duration_s=DURATION_S,
        random_state=REFERENCE_SEED,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    references.save_npz(path)
    return references


def round_targets(seed: int, client: int, index: int) -> list[dict]:
    """The four distinct targets of one client round, as request parts."""
    import numpy as np
    from repro.workloads import SKU, result_to_dict, run_experiments, workload_by_name

    rng = np.random.default_rng([seed, 0x7A, client, index])
    # Concurrency cycles with the round, not the seed, so every run
    # sends the same mix of target shapes.
    terminals = TARGET_TERMINALS[index % len(TARGET_TERMINALS)]
    targets = []
    for family in FAMILIES:
        runs = run_experiments(
            [workload_by_name(family)], [SKU(cpus=2, memory_gb=32.0)],
            terminals_for=lambda w: (1,) if w.name == "tpch" else (terminals,),
            n_runs=1, duration_s=DURATION_S,
            random_state=int(rng.integers(0, 2**31)),
        )
        targets.append(
            {"id": f"{client}-{index}-{family}",
             "target": [result_to_dict(r) for r in runs]}
        )
    return targets


def predict_body(target: dict) -> bytes:
    return json.dumps(
        {"target": target["target"], "source_sku": SOURCE_SKU,
         "target_sku": TARGET_SKU}
    ).encode()


def rank_body(target: dict) -> bytes:
    return json.dumps({"target": target["target"]}).encode()


class Client:
    """One closed-loop caller on a keep-alive HTTP connection."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: bytes | None = None):
        """``(status, raw body, ms)``; status 0 when the transport failed."""
        started = time.perf_counter()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body, headers)
            response = self.conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            common.log(f"serve-dtw: {method} {path} failed: {exc}")
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            raw, status = b"", 0
        return status, raw, (time.perf_counter() - started) * 1000.0

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child process, booted and primed."""

    def __init__(self, ctx, references_path: Path, index: int):
        self.ctx = ctx
        log_path = ctx.work / f"serve-{index}.log"
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--references", str(references_path), "--port", "0",
             "--representation", "mts", "--measure", "Dependent-DTW"],
            env=ctx.env, stdout=subprocess.PIPE, stderr=self.log,
            stdin=subprocess.DEVNULL, text=True,
        )
        ctx.children.append(self.proc)
        watchdog = threading.Timer(ctx.remaining(), self.proc.kill)
        watchdog.start()
        line = self.proc.stdout.readline()
        watchdog.cancel()
        match = BOOT_LINE.search(line)
        if not match:
            self.stop()
            raise common.BenchError(
                f"repro serve did not boot: {line!r} {log_path.read_text()[-2000:]}"
            )
        self.port = int(match.group(1))

    def prime(self, references) -> None:
        """Fit each reference's lazy scaling model with its own runs."""
        from repro.workloads import result_to_dict

        client = Client(self.port)
        try:
            for family in FAMILIES:
                runs = [
                    result_to_dict(r) for r in references
                    if r.workload_name == family and r.sku.cpus == 2
                ]
                status, raw, _ = client.call(
                    "POST", "/v1/predict", predict_body({"target": runs})
                )
                if status != 200:
                    raise common.BenchError(f"priming {family}: {status} {raw[:500]!r}")
        finally:
            client.close()

    def metrics(self) -> dict:
        """Unlabelled series of ``GET /metrics``."""
        client = Client(self.port)
        try:
            status, raw, _ = client.call("GET", "/metrics")
        finally:
            client.close()
        if status != 200:
            raise common.BenchError(f"GET /metrics answered {status}")
        values = {}
        for line in raw.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def stop(self) -> tuple[int, int, list]:
        """SIGTERM and reap; returns ``(exit code, peak RSS KB, leaked)``.

        ``leaked`` names the shared-memory segments the server had
        mapped and did not unlink; they are removed here, so a server
        that dies uncleanly leaves nothing behind.  Only this server's
        own segments (read from its ``/proc/<pid>/maps``) are touched.
        """
        segments = set()
        try:
            with open(f"/proc/{self.proc.pid}/maps") as maps:
                for line in maps:
                    path = line.split()[-1]
                    if path.startswith(f"{SHM_DIR}/"):
                        segments.add(Path(path))
        except OSError:
            pass
        try:
            code, rss_kb = common.stop_process(self.proc)
        finally:
            self.proc.stdout.close()
            self.log.close()
        leaked = sorted(str(p) for p in segments if p.exists())
        for path in leaked:
            Path(path).unlink(missing_ok=True)
        if code != 0 or leaked:
            common.log(f"serve-dtw: server exited {code}, left {len(leaked)} shm segment(s)")
        return code, rss_kb, leaked


def boot(ctx, index: int):
    """One set-up: inputs, server boot, warmup and priming."""
    started = time.perf_counter()
    references_path = ctx.work / f"serve-{index}" / "references.npz"
    references = write_references(references_path)
    server = Server(ctx, references_path, index)
    server.prime(references)
    return server, references_path, time.perf_counter() - started


def client_loop(ctx, port, client_id, deadline_s, start, records, rounds=None, tracer=None):
    """Closed loop of whole rounds until the deadline (or ``rounds``)."""
    tracer = tracer or common.NullTracer()
    client = Client(port)
    index = 0
    try:
        while True:
            targets = round_targets(ctx.seed, client_id, index)
            ranked = targets[index % len(targets)]
            plan = []
            for target in targets:
                plan.append(("cold", "/v1/predict", target))
                if target is ranked:
                    plan.append(("cold", "/v1/rank", target))
            plan += [("warm", path, target) for _, path, target in list(plan)]
            for kind, path, target in plan:
                body = predict_body(target) if path == "/v1/predict" else rank_body(target)
                with tracer.span(f"http{path.replace('/', '.')}", request_id=target["id"]):
                    status, raw, ms = client.call("POST", path, body)
                records.append(
                    {"kind": kind, "path": path, "target": target,
                     "status": status, "raw": raw, "ms": ms}
                )
                if status == 0:
                    return  # the server is gone; the run is already lost
            index += 1
            if rounds is not None and index >= rounds:
                break
            if rounds is None and time.perf_counter() - start >= deadline_s:
                break
    finally:
        client.close()


def drive(ctx, port, *, seconds=None, rounds=None, tracer=None):
    """Both clients' closed loops; returns (records, elapsed seconds)."""
    records: list[dict] = []
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=client_loop,
            args=(ctx, port, c, seconds, start, records, rounds, tracer),
            daemon=True,
        )
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(ctx.remaining())
    if any(thread.is_alive() for thread in threads):
        raise common.BenchError("serve-dtw clients did not finish in time")
    return records, time.perf_counter() - start


def check_records(records) -> None:
    """Mark each record ``ok``: 200, warm == cold, predict == rank argmin."""
    cold = {}
    for record in records:
        record["ok"] = record["status"] == 200
        if record["ok"]:
            record["body"] = json.loads(record["raw"])
            if record["kind"] == "cold":
                cold[(record["path"], record["target"]["id"])] = record
    for record in records:
        if not record["ok"]:
            continue
        key = (record["path"], record["target"]["id"])
        if record["kind"] == "warm":
            first = cold.get(key)
            if first is None or not first["ok"] or (
                _answer(first["body"]) != _answer(record["body"])
            ):
                record["ok"] = False
                common.log(f"serve-dtw: warm {key} differs from its cold answer")
        elif record["path"] == "/v1/predict":
            rank = cold.get(("/v1/rank", record["target"]["id"]))
            if rank is not None and rank["ok"]:
                ranking = rank["body"]["result"]["ranking"]
                argmin = min(ranking, key=ranking.get)
                if record["body"]["result"]["reference_workload"] != argmin:
                    record["ok"] = False
                    common.log(f"serve-dtw: predict {key} nearest is not the rank argmin")


def _answer(body: dict) -> bytes:
    return json.dumps(
        {"digest": body["digest"], "result": body["result"]}, sort_keys=True
    ).encode()


def in_process_service(references_path: Path):
    """The server's service object on the same file and configuration."""
    from repro.core import PipelineConfig
    from repro.serve.service import PredictionService, load_references

    service = PredictionService(
        load_references(references_path),
        PipelineConfig(representation="mts", measure="Dependent-DTW"),
    )
    return service


def oracle_ranking(service, record) -> bool:
    """Recompute one ``/v1/rank`` answer with the naive DTW recurrence."""
    from repro.serve.protocol import decode_experiments
    from repro.workloads import ExperimentRepository

    target = ExperimentRepository(
        decode_experiments(record["target"]["target"], what="target")
    )
    _, matrices = service.prepare_target(target)
    refs = service.index.matrices
    cross = [[oracles.dtw_dependent(q, r) for r in refs] for q in matrices]
    peak = max(max(row) for row in cross)
    expected = {
        name: sum(row[j] / peak for row in cross for j in members)
        / (len(cross) * len(members))
        for name, members in service.index.groups
    }
    got = record["body"]["result"]["ranking"]
    ok = got.keys() == expected.keys() and all(
        oracles.close(got[name], expected[name]) for name in expected
    )
    if not ok:
        common.log(f"serve-dtw: ranking {got} differs from naive DTW {expected}")
    return ok and record["body"]["result"]["nearest"] == min(expected, key=expected.get)


def measure(ctx) -> dict:
    live: list[Server] = []
    stopped = []
    try:
        setups = []
        for index in range(SETUP_REPEATS):
            server, references_path, seconds = boot(ctx, index)
            live.append(server)
            setups.append(seconds)
            if index < SETUP_REPEATS - 1:
                stopped.append(live.pop().stop())
        records, elapsed = drive(ctx, live[0].port, seconds=ctx.seconds)
        stopped.append(live.pop().stop())
    finally:
        for server in live:
            server.stop()
    check_records(records)
    ranked = [r for r in records if r["ok"] and r["kind"] == "cold" and r["path"] == "/v1/rank"]
    service = in_process_service(references_path)
    service.warmup()
    if ranked and not oracle_ranking(service, ranked[0]):
        ranked[0]["ok"] = False
    ok = [r for r in records if r["ok"]]
    return common.end_to_end(
        records,
        [r["ms"] for r in ok if r["kind"] == "cold" and r["path"] == "/v1/predict"],
        [r["ms"] for r in ok if r["kind"] == "warm"],
        setups=setups,
        elapsed_s=elapsed,
        rss_kb=stopped[-1][1],
        correct=all(code == 0 and not leaked for code, _, leaked in stopped),
    )


def warm_burst(port, targets, count: int, tracer) -> list[float]:
    """``count`` repeated predicts, answered from the response cache."""
    client = Client(port)
    latencies = []
    try:
        for i in range(count):
            target = targets[i % len(targets)]
            with tracer.span("http.v1.predict.warm", request_id=target["id"]):
                status, _, ms = client.call("POST", "/v1/predict", predict_body(target))
            if status != 200:
                raise common.BenchError(f"warm burst request answered {status}")
            latencies.append(ms)
    finally:
        client.close()
    return latencies


def probe(ctx, overhead: bool) -> dict:
    """Serve layers: HTTP traffic on a live server, stages in-process."""
    from repro.serve import ServeApp
    from repro.serve.protocol import decode_experiments, file_digest, request_digest
    from repro.workloads import ExperimentRepository

    tracer = common.Tracer()
    server = None
    plain = None
    try:
        with tracer.span("serve.boot"):
            server, references_path, _ = boot(ctx, 0)
        records, _ = drive(ctx, server.port, rounds=1, tracer=tracer)
        check_records(records)
        targets = [
            r["target"] for r in records
            if r["kind"] == "cold" and r["path"] == "/v1/predict"
        ]
        if overhead:
            plain = warm_burst(server.port, targets, WARM_BURST // 2, common.NullTracer())
        warm = warm_burst(server.port, targets, WARM_BURST, tracer)
        counters = server.metrics()
        exit_code, _, leaked = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()

    service = in_process_service(references_path)
    with tracer.span("serve.warmup"):
        service.warmup()
    app = ServeApp(service, references_digest=file_digest(references_path))
    try:
        prepared = []
        for target in targets:
            payload = json.loads(predict_body(target))
            with tracer.span("serve.digest"):
                request_digest(app.identity, "/v1/predict", payload)
            with tracer.span("serve.decode"):
                decoded = decode_experiments(payload["target"], what="target")
            with tracer.span("serve.prepare"):
                prepared.append(service.prepare_target(ExperimentRepository(decoded)))
            with tracer.span("serve.nearest"):
                service.nearest_reference(prepared[-1][1])
            with tracer.span("serve.rank_cold"):
                service.rank_prepared([prepared[-1]])
        for i in range(0, len(prepared) - 1, CLIENTS):
            with tracer.span("serve.rank_batch"):
                service.rank_prepared(prepared[i:i + CLIENTS])
        for target in targets:
            payload = json.loads(predict_body(target))
            app.handle("POST", "/v1/predict", payload)
            for _ in range(3):
                with tracer.span("serve.handle_hit"):
                    status, _, _ = app.handle("POST", "/v1/predict", payload)
                if status != 200:
                    raise common.BenchError(f"in-process hit answered {status}")
    finally:
        app.shutdown()
    tracer.write(ctx.trace_path("serve-dtw"))

    def span_median(name):
        return common.median(tracer.durations_ms(name))

    batches = counters.get("serve_batch_size_count", 0.0)
    layers = {
        "serve.warmup_ms": span_median("serve.warmup"),
        "serve.decode_ms": span_median("serve.decode"),
        "serve.prepare_ms": span_median("serve.prepare"),
        "serve.nearest_ms": span_median("serve.nearest"),
        "serve.rank_batch_ms": span_median("serve.rank_batch"),
        "serve.rank_cold_ms": span_median("serve.rank_cold"),
        "serve.batch_size_mean": (
            counters.get("serve_batch_size_sum", 0.0) / batches if batches else 0.0
        ),
        "serve.pipeline_executions": counters.get("serve_pipeline_executions_total", 0.0),
        "serve.digest_ms": span_median("serve.digest"),
        "serve.http_ms": common.median(warm) - span_median("serve.handle_hit"),
        "serve.response_cache_hits": counters.get("serve_response_cache_hits_total", 0.0),
        "serve.warm_p95_ms": common.percentile(warm, 95),
        "serve.warm_samples": len(warm),
        "similarity.pairs_pruned": counters.get("similarity_pairs_pruned_total", 0.0),
    }
    failed = sum(not r["ok"] for r in records) + (exit_code != 0 or bool(leaked))
    return {
        "attempted": len(records) + len(warm) + len(plain or ()),
        "failed": failed,
        "layers": layers,
        "overhead_ms": (
            common.median(warm) - common.median(plain) if plain is not None else None
        ),
    }
