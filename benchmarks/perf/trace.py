"""The traced run (``--trace 1``): where the script's time goes, by layer.

Five parts, all on the run's own seed:

1. the layer probes (``probes.py``);
2. a *served round* of a one-daemon script with the daemon's own counts
   read from ``/status`` at the end, then a clean shutdown and a restart
   onto the checkpointed window (``service.resume_s``);
3. an *in-process replay* of the same script through each layer's public
   entry points, every call under a harness span (``spans.py``) — the
   difference to the served latency of the same op is transport;
4. a *cluster round* with the workers' own handler seconds scraped from
   their ``/metrics`` at every phase boundary — what the coordinator's
   answer time holds beyond that is routing and gather;
5. a short two-connection probe (informational: the serial script cannot
   see head-of-line blocking or back-pressure).

Parts 2–4 run on this workload's script where it has that shape, else
on ``serve_mixed``'s / ``cluster_mixed``'s script for the same seed.
The spans of this workload's own script go to
``results/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .adapters import HOST, ClusterAdapter, Http, ServeAdapter
from .gen import Script, generate
from .probes import parse_ingest, run_probes
from .reference import (
    answer_rel_err, expected_answers, namespace_config, preload_bundles,
)
from .runner import (
    RESULTS, build_template, count_failed, make_workdir,
    wait_out_day_boundary,
)
from .spans import Recorder, Span, group_seconds
from .spec import (
    FUNCTIONS, GROUPS, NAMESPACE, PER_LAYER, SHARE_SCOPES, WORKLOADS, Workload,
)
from .stats import quantile

_CONCURRENT_SECONDS = 3.0


@dataclass
class TracedResult:
    workload: Workload
    seed: int
    attempted: int
    failed: int
    metrics: dict  # name -> value


def _scope_ops(script: Script, scope: str) -> set:
    return {
        index for index, op in enumerate(script.ops)
        if scope == "script" or op.phase == scope
    }


def _shares(script: Script, spans: list, op_seconds: list) -> dict:
    """``share.<scope>.<group>`` from spans and each op's full latency.

    ``op_seconds`` is what a client waited per op; whatever of it the
    spans do not cover (they cover the in-process replay) is transport.
    """
    out = {}
    for scope in SHARE_SCOPES:
        ops = _scope_ops(script, scope)
        total = sum(op_seconds[index] for index in ops)
        inside = group_seconds(spans, ops)
        inside["transport"] = max(0.0, total - sum(inside.values()))
        for group in GROUPS:
            out[f"share.{scope}.{group}"] = inside.get(group, 0.0) / total
    return out


# -- in-process replays -------------------------------------------------------


def replay_library(script: Script, work: Path, recorder: Recorder) -> list:
    """The library script through its layers' entry points, under spans."""
    from repro.core.aggregates import AggregationSpec
    from repro.core.predicates import key_in
    from repro.core.summary import build_summary_from_sketches
    from repro.engine.queries import QueryEngine
    from repro.engine.sharded import ShardedSummarizer
    from repro.store.store import SummaryStore

    w = script.workload
    summarizer = ShardedSummarizer(k=w.k, assignments=list(w.assignments))
    engine = None
    answers = []
    for index, op in enumerate(script.ops):
        with recorder.span("op." + op.role, "query", op=index):
            if op.is_ingest:
                with recorder.span("engine.ingest_multi", "sampling"):
                    summarizer.ingest_multi(op.keys, op.weights)
                engine = None
                answers.append(None)
                continue
            if op.role == "persist":
                with recorder.span("engine.sketch_bundle", "sampling"):
                    bundle = summarizer.sketch_bundle()
                with recorder.span("store.write", "store"):
                    store = SummaryStore(work / "replay-persist")
                    entry = store.write(NAMESPACE, "20240101", bundle)
                with recorder.span("store.load", "store"):
                    loaded = store.load(entry)
                with recorder.span("engine.from_bundles", "query"):
                    answering = QueryEngine.from_bundles([loaded])
                store.runtime.close()
            else:
                if engine is None:
                    with recorder.span("engine.finalize", "sampling"):
                        sketches = summarizer.sketches()
                    with recorder.span("core.summary_build", "query"):
                        summary = build_summary_from_sketches(
                            sketches, summarizer.family,
                            method_name="shared_seed",
                        )
                    engine = QueryEngine(summary)
                answering = engine
            with recorder.span("engine.estimate", "query"):
                answers.append(float(answering.estimate(
                    AggregationSpec(op.function, tuple(op.assignments)),
                    predicate=(
                        None if op.keys is None
                        else key_in(op.keys.tolist())
                    ),
                )))
    return answers


def replay_served(
    script: Script, template: Path, work: Path, recorder: Recorder
) -> list:
    """A served script in process: parse, windows, planner, encode.

    ``LiveWindowManager.ingest`` and ``QueryPlanner.estimate`` call the
    next layers themselves, so each inner call is repeated on twins —
    a second summarizer, store and runtime tier fed the same inputs —
    and recorded as a child of the outer span.
    """
    from repro.core.aggregates import AggregationSpec
    from repro.core.predicates import key_in
    from repro.engine.queries import QueryEngine
    from repro.service.jsonutil import dumps_strict
    from repro.service.planner import QueryPlanner
    from repro.service.windows import LiveWindowManager
    from repro.store.store import SummaryStore

    config = namespace_config(script.workload)
    roots = []
    for name in ("replay", "replay-twin"):
        shutil.copytree(template, work / name)
        roots.append(SummaryStore(work / name))
    store, twin_store = roots
    manager = LiveWindowManager(store, [config], granularity="day")
    planner = QueryPlanner(manager)
    twin = config.make_summarizer()
    twin_entries = twin_store.bundle_entries(NAMESPACE)
    twin_engine = None
    seen: set = set()
    answers = []
    span = recorder.span
    for index, op in enumerate(script.ops):
        # the op as the daemon runs it; the twins follow, outside its span
        with span("op." + op.role, "service", op=index):
            with span("service.parse", "service"):
                if op.is_ingest:
                    keys, weights = parse_ingest(op.body)
                else:
                    request = json.loads(op.body)
            if op.is_ingest:
                with span("service.windows_ingest", "service") as outer:
                    result = manager.ingest(NAMESPACE, keys, weights)
            else:
                with span("service.planner", "service") as outer:
                    result = planner.estimate(
                        NAMESPACE, request["function"],
                        request["assignments"], keys=request.get("keys"),
                    )
            with span("service.encode_answer", "service"):
                dumps_strict({"ok": True, **result})
        answers.append(None if op.is_ingest else result["estimate"])
        if op.is_ingest:
            with span("engine.ingest_multi", "sampling", parent=outer):
                twin.ingest_multi(keys, weights)
            with span("store.runtime_record_ingest", "store", parent=outer):
                twin_store.runtime.record_ingest(NAMESPACE, len(keys))
            twin_engine = None
            continue
        cache_key = op.body.decode("utf-8")
        with span("store.runtime_cache_get", "store", parent=outer):
            twin_store.runtime.cache_get(cache_key)
        if op.body in seen:
            continue  # a result-cache hit builds and estimates nothing
        if twin_engine is None:
            with span("engine.finalize", "sampling", parent=outer):
                live = twin.sketch_bundle()
            with span("store.load", "store", parent=outer):
                stored = [twin_store.load(entry) for entry in twin_entries]
            with span("engine.from_bundles", "query", parent=outer):
                twin_engine = QueryEngine.from_bundles(stored + [live])
        with span("engine.estimate", "query", parent=outer):
            twin_engine.estimate(
                AggregationSpec(
                    request["function"], tuple(request["assignments"])
                ),
                predicate=(
                    key_in(request["keys"]) if "keys" in request else None
                ),
            )
        with span("store.runtime_cache_put", "store", parent=outer):
            twin_store.runtime.cache_put(
                cache_key, NAMESPACE, result["version"], result,
                max_entries=1024,
            )
        # only predicate queries come back on an unchanged version (the
        # replay phase); full-population bodies repeat on moved versions
        if op.keys is not None:
            seen.add(op.body)
    store.runtime.close()
    twin_store.runtime.close()
    return answers


def _op_seconds(recorder: Recorder, count: int) -> list:
    seconds = [0.0] * count
    for span in recorder.spans:
        if span.parent is None:
            seconds[span.op] = span.duration_ns / 1e9
    return seconds


# -- served parts -------------------------------------------------------------


def served_round(script: Script, template: Path, work: Path) -> tuple:
    """``(results, metrics, resumed_ok)`` of one daemon round.

    ``resumed_ok``: a daemon restarted onto the checkpointed window gave
    the script's closing answers again, bit for bit.
    """
    root = work / "served"
    shutil.copytree(template, root)
    with ServeAdapter(script.workload) as adapter:
        adapter.start(root)
        results = adapter.run(script)
        status = adapter.http.json("GET", "/status")
        rtts = [
            (end - start) / 1e3 for start, end, _status, _data in (
                adapter.http.exchange("GET", "/health") for _ in range(100)
            )
        ]
        adapter.shutdown()
    with ServeAdapter(script.workload) as resumed:
        started = time.perf_counter()
        resumed.start(root)
        resume_s = time.perf_counter() - started
        closing = [
            i for i, op in enumerate(script.ops) if op.role == "check"
        ][-len(FUNCTIONS):]
        again = resumed.http.run([script.ops[i] for i in closing])
    resumed_ok = (
        [r.estimate for r in again] == [results[i].estimate for i in closing]
    )
    acks = [
        r.seconds * 1e3 for op, r in zip(script.ops, results) if op.is_ingest
    ]
    planner = status["planner"]
    metrics = {
        "service.health_rtt_us": statistics.median(rtts),
        "service.ingest_ack_p50_ms": statistics.median(acks),
        "service.ingest_ack_p95_ms": quantile(acks, 95),
        "service.result_hit_p50_ms": statistics.median(
            r.seconds * 1e3
            for op, r in zip(script.ops, results) if op.role == "hit"
        ),
        "service.resume_s": resume_s,
        "service.engine_builds": float(planner["engine_builds"]),
        "service.result_hits": float(planner["hits"]),
        "service.result_misses": float(planner["misses"]),
        "service.rejected_batches": float(
            status["runtime"]["counters"].get("rejected_batches", 0)
        ),
    }
    return results, metrics, resumed_ok


_HANDLER_SUM = re.compile(
    r'^repro_http_request_seconds_sum\{[^}]*path="(/[a-z/]*)"[^}]*\} (\S+)$',
    re.MULTILINE,
)


def _handler_seconds(ports: list) -> dict:
    """``path -> seconds`` the workers spent in their request handlers."""
    totals = {"/ingest": 0.0, "/bundle": 0.0}
    for port in ports:
        scrape = Http(port)
        _, _, _status, text = scrape.exchange("GET", "/metrics")
        scrape.close()
        for path, value in _HANDLER_SUM.findall(text.decode("utf-8")):
            if path in totals:
                totals[path] += float(value)
    return totals


def cluster_round(script: Script, work: Path) -> tuple:
    """``(results, phase -> path -> worker handler seconds, metrics)``."""
    from repro.service.client import ServiceClient
    from repro.service.cluster import slot_namespace

    w = script.workload
    results: list = []
    inside: dict = {}
    with ClusterAdapter(w) as adapter:
        adapter.start(work / "cluster")
        seen = _handler_seconds(adapter.worker_ports)
        for phase in dict.fromkeys(op.phase for op in script.ops):
            results += adapter.http.run(
                [op for op in script.ops if op.phase == phase]
            )
            now = _handler_seconds(adapter.worker_ports)
            inside[phase] = {path: now[path] - seen[path] for path in now}
            seen = now
        worker = ServiceClient(HOST, adapter.worker_ports[0])
        sizes: list = []

        def gather() -> None:
            sizes.clear()
            for slot in range(w.slots):
                blob, _version = worker.bundle(slot_namespace(NAMESPACE, slot))
                sizes.append(len(blob or b""))

        samples = []
        for _ in range(10):
            started = time.perf_counter()
            gather()
            samples.append(time.perf_counter() - started)
        worker.close()
    metrics = {
        "cluster.gather_ms": statistics.median(samples) * 1e3,
        "cluster.gather_bytes": float(sum(sizes)),
    }
    return results, inside, metrics


def _cluster_shares(script: Script, results: list, inside: dict) -> dict:
    """Worker handler time is ``service``; the rest of an answer's time
    (routing, re-encode, gather, merge, both HTTP hops) is ``cluster``."""
    out = {f"share.{s}.{g}": 0.0 for s in SHARE_SCOPES for g in GROUPS}
    for scope in SHARE_SCOPES:
        total = sum(results[i].seconds for i in _scope_ops(script, scope))
        workers = sum(
            sum(by_path.values()) for phase, by_path in inside.items()
            if scope in ("script", phase)
        )
        out[f"share.{scope}.service"] = workers / total
        out[f"share.{scope}.cluster"] = 1.0 - workers / total
    return out


def concurrent_probe(script: Script, template: Path, work: Path) -> dict:
    """Queries on one connection beside async ingest on a second."""
    root = work / "concurrent"
    shutil.copytree(template, root)
    batches = [
        op.body.replace(b'"sync":true', b'"sync":false')
        for op in script.ops if op.is_ingest
    ]
    queries = [op.body for op in script.ops if op.phase == "quiet"]
    acks: list = []
    rejected = [0]
    stop = threading.Event()
    with ServeAdapter(script.workload) as adapter:
        adapter.start(root)
        writer = Http(adapter.http.port)

        def write() -> None:
            position = 0
            while not stop.is_set():
                start, end, status, _data = writer.exchange(
                    "POST", "/ingest", batches[position % len(batches)]
                )
                acks.append((end - start) / 1e6)
                rejected[0] += status == 429
                position += 1

        thread = threading.Thread(target=write)
        thread.start()
        latencies = []
        deadline = time.monotonic() + _CONCURRENT_SECONDS
        position = 0
        while time.monotonic() < deadline:
            start, end, _status, _data = adapter.http.exchange(
                "POST", "/query", queries[position % len(queries)]
            )
            latencies.append((end - start) / 1e6)
            position += 1
        stop.set()
        thread.join()
        writer.close()
    return {
        "service.conc_query_p50_ms": statistics.median(latencies),
        "service.conc_ingest_ack_p95_ms": quantile(acks, 95),
        "service.async_rejected_share": rejected[0] / len(acks),
    }


# -- the run ------------------------------------------------------------------


@dataclass
class Part:
    """What one traced script contributes."""

    script: Script
    metrics: dict
    shares: dict
    spans: list
    answers: list
    attempted: int
    failed: int


def _overhead(replay) -> float:
    """Harness spans on vs off over one in-process replay."""
    seconds = []
    for enabled in (True, False):
        started = time.perf_counter()
        replay(Recorder(enabled=enabled))
        seconds.append(time.perf_counter() - started)
    return (seconds[0] - seconds[1]) / seconds[1]


def trace_service(script: Script, work: Path, own: bool) -> Part:
    stored = preload_bundles(script)
    expected = expected_answers(script, stored)
    template = work / "template"
    build_template(stored, template)
    results, metrics, resumed_ok = served_round(script, template, work)

    def replay(recorder: Recorder) -> list:
        try:
            return replay_served(script, template, work, recorder)
        finally:
            for name in ("replay", "replay-twin"):
                shutil.rmtree(work / name)

    recorder = Recorder()
    answers = replay(recorder)
    waited = [r.seconds for r in results]
    inside = _op_seconds(recorder, len(script.ops))
    metrics["service.transport_us"] = statistics.median(
        (waited[i] - inside[i]) * 1e6
        for i, op in enumerate(script.ops) if op.phase == "quiet"
    )
    if own:
        metrics["obs.trace_overhead_share"] = _overhead(replay)
    metrics.update(concurrent_probe(script, template, work))
    return Part(
        script, metrics, _shares(script, recorder.spans, waited),
        recorder.spans, [r.estimate for r in results],
        2 * len(script.ops) + 1,
        count_failed(script, results, expected) + (not resumed_ok)
        + sum(a != e for a, e in zip(answers, expected)),
    )


def trace_cluster(script: Script, work: Path) -> Part:
    expected = expected_answers(script, [])
    results, handler_s, metrics = cluster_round(script, work)
    load_ack_s = sum(
        r.seconds for op, r in zip(script.ops, results)
        if op.phase == "load" and op.is_ingest
    )
    metrics["cluster.route_ingest_ms"] = (
        (load_ack_s - handler_s["load"]["/ingest"]) * 1e3
        / script.workload.load_batches
    )
    spans = [
        Span(i, "op." + op.role, "cluster", None, i, r.start_ns, r.end_ns)
        for i, (op, r) in enumerate(zip(script.ops, results))
    ]
    return Part(
        script, metrics, _cluster_shares(script, results, handler_s), spans,
        [r.estimate for r in results], len(script.ops),
        count_failed(script, results, expected),
    )


def trace_library(script: Script, work: Path) -> Part:
    expected = expected_answers(script, [])

    def replay(recorder: Recorder) -> list:
        try:
            return replay_library(script, work, recorder)
        finally:
            shutil.rmtree(work / "replay-persist", ignore_errors=True)

    recorder = Recorder()
    answers = replay(recorder)
    return Part(
        script, {"obs.trace_overhead_share": _overhead(replay)},
        _shares(
            script, recorder.spans, _op_seconds(recorder, len(script.ops))
        ),
        recorder.spans, answers, len(script.ops),
        sum(a != e for a, e in zip(answers, expected)),
    )


def _fixture(workload: Workload, script: Script, shape: str, smoke: bool):
    """This workload's script if it has ``shape``, else the default's."""
    if workload.adapter == shape:
        return script
    default = WORKLOADS["serve_mixed" if shape == "serve" else "cluster_mixed"]
    return generate(default.smoke() if smoke else default, script.seed)


def run_traced(workload: Workload, seed: int, smoke: bool = False):
    wait_out_day_boundary()
    script = generate(workload, seed)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    work = make_workdir()
    try:
        probed, errors = run_probes(script, work)
        metrics.update(probed)
        metrics["harness.probe_errors"] = float(errors)
        parts = {
            "serve": trace_service(
                _fixture(workload, script, "serve", smoke), work,
                own=workload.adapter != "library",
            ),
            "cluster": trace_cluster(
                _fixture(workload, script, "cluster", smoke), work
            ),
        }
        if workload.adapter == "library":
            parts["library"] = trace_library(script, work)
        for part in parts.values():
            metrics.update(part.metrics)
        own = parts[workload.adapter]
        metrics.update(own.shares)
        metrics["answer_rel_err"] = answer_rel_err(own.script, own.answers)
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(
            RESULTS / f"trace-{workload.name}.jsonl", "w", encoding="utf-8"
        ) as handle:
            for span in own.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return TracedResult(
        workload, seed,
        sum(part.attempted for part in parts.values()),
        sum(part.failed for part in parts.values()),
        metrics,
    )


def format_table(result: TracedResult) -> str:
    lines = [
        f"workload {result.workload.name}  seed {result.seed}  traced  "
        f"ops {result.attempted}  failed {result.failed}",
        f"{'metric':<42}{'value':>16}  unit",
    ]
    for metric in PER_LAYER:
        lines.append(
            f"{metric.name:<42}{result.metrics[metric.name]:>16.4f}  "
            f"{metric.unit}"
        )
    return "\n".join(lines)
