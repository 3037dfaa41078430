"""Observability over live daemons: /metrics, /trace/recent, propagation.

A real single-node daemon and a real coordinator + workers cluster, all
on ephemeral ports.  The properties under test: every daemon serves a
parseable Prometheus exposition whose request counters are monotonic;
request handling emits the span taxonomy (parse / plan / cache-probe /
merge / ...); error bodies and :class:`ServiceError` carry the trace ID;
and a query through :class:`ClusterClient` yields one coordinator trace
with a ``slot-fetch`` child per contacted worker whose trace ID the
workers' own request spans share — the cross-daemon propagation path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import parse_prometheus_text
from repro.service import (
    ClusterClient,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.cli import main as cli_main
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    slot_namespace_configs,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
N_SLOTS = 4
SALT = 4  # splits the 4 slots 2/2 between two workers under HRW


def make_config(root, **overrides):
    base = dict(
        store_root=str(root),
        namespaces=(NS,),
        port=0,
        compact_to=None,
        tick_s=3600.0,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def event_batch(lo: int, n: int = 40):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo + 1)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


@pytest.fixture
def service(tmp_path):
    with ServiceThread(make_config(tmp_path / "store")) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        yield thread, client
        client.close()


class TestServiceMetrics:
    def test_metrics_scrape_is_valid_and_monotonic(self, service):
        _thread, client = service
        client.status()
        first = parse_prometheus_text(client.metrics())
        status_requests = (
            "repro_http_requests_total",
            (("path", "/status"), ("status", "200")),
        )
        assert first[status_requests] >= 1
        assert first[
            ("repro_http_request_seconds_count", (("path", "/status"),))
        ] >= 1
        client.status()
        second = parse_prometheus_text(client.metrics())
        assert second[status_requests] == first[status_requests] + 1

    def test_ingest_and_query_series_appear(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        client.estimate("web", "max", ["h1", "h2"])
        samples = parse_prometheus_text(client.metrics())
        assert samples[
            ("repro_ingest_events_total", (("namespace", "web"),))
        ] == len(keys)
        assert samples[
            ("repro_ingest_apply_seconds_count", (("namespace", "web"),))
        ] >= 1
        assert samples[
            ("repro_query_plan_seconds_count", (("namespace", "web"),))
        ] >= 1
        assert samples[("repro_live_finalize_seconds_count", ())] >= 1
        assert samples[
            ("repro_result_cache_lookups_total", (("outcome", "miss"),))
        ] >= 1
        # the queue/result-cache gauges are registered at boot, so one
        # scrape shows them even before any traffic touches them
        assert samples[("repro_ingest_queue_capacity", ())] == 64
        assert samples[("repro_ingest_queue_depth", ())] >= 0
        assert samples[("repro_result_cache_entries", ())] >= 1

    def test_unknown_path_folds_to_other_label(self, service):
        _thread, client = service
        with pytest.raises(ServiceError):
            client._request("GET", "/no/such/endpoint/abc123")
        with pytest.raises(ServiceError):
            client._request("GET", "/no/such/endpoint/def456")
        samples = parse_prometheus_text(client.metrics())
        assert samples[
            ("repro_http_requests_total",
             (("path", "other"), ("status", "404")))
        ] >= 2
        assert not any(
            "abc123" in str(key) for key in samples
        ), "unbounded 404 paths must not mint label values"

    def test_status_reports_registry_gauges(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        client.estimate("web", "max", ["h1", "h2"])
        status = client.status()
        assert status["queue"]["capacity"] == 64
        assert status["queue"]["depth"] >= 0
        assert status["result_cache"]["entries"] >= 1


class TestServiceTracing:
    def test_query_emits_span_taxonomy(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        client.estimate("web", "max", ["h1", "h2"])
        recent = client.trace_recent(limit=100)
        assert recent["ok"] and recent["dropped_log_writes"] == 0
        spans = recent["spans"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        root = by_name["POST /query"][0]
        for child_name in (
            "parse", "plan", "cache-probe", "live-finalize", "engine-build"
        ):
            child = by_name[child_name][0]
            assert child["trace"] == root["trace"]
            assert child["parent"] is not None
        assert by_name["plan"][0]["parent"] == root["span"]
        # folding the live window is its own child of plan, beside (not
        # inside) engine-build
        assert by_name["live-finalize"][0]["parent"] == by_name["plan"][0]["span"]
        assert by_name["engine-build"][0]["parent"] == by_name["plan"][0]["span"]
        assert by_name["ingest-apply"][0]["tags"]["events"] == len(keys)

    def test_error_body_and_service_error_carry_trace(self, service):
        _thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.estimate("nope", "max", ["h1"])
        err = excinfo.value
        assert err.trace is not None
        assert f"[trace {err.trace}]" in str(err)
        trace_id = err.trace.split("-")[0]
        failed = [
            span for span in client.trace_recent(limit=100)["spans"]
            if span["trace"] == trace_id and span["status"] == "error"
        ]
        assert failed, "the failed request span must be in the ring"

    def test_trace_log_jsonl_sink(self, tmp_path):
        log_path = tmp_path / "trace.jsonl"
        config = make_config(tmp_path / "store", trace_log=str(log_path))
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            client.status()
            client.close()
        rows = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert any(row["name"] == "GET /status" for row in rows)
        assert all(
            {"trace", "span", "name", "duration_ms", "status"} <= set(row)
            for row in rows
        )

    def test_observability_disabled_serves_without_series(self, tmp_path):
        config = make_config(tmp_path / "store", observability=False)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            keys, weights = event_batch(0)
            client.ingest("web", keys, weights, sync=True)
            client.estimate("web", "max", ["h1", "h2"])
            samples = parse_prometheus_text(client.metrics())
            # boot-time gauges still render (registration is free); the
            # hot paths — request counters, latency histograms, ingest
            # and planner series — must have recorded nothing
            assert not any(
                key[0].startswith(("repro_http_", "repro_ingest_events",
                                   "repro_ingest_apply", "repro_query_",
                                   "repro_result_cache_lookups"))
                for key in samples
            ), "disabled registry must record no hot-path samples"
            assert client.trace_recent()["spans"] == []
            with pytest.raises(ServiceError) as excinfo:
                client.estimate("nope", "max", ["h1"])
            assert excinfo.value.trace is None
            client.close()


class ObsCluster:
    """A coordinator plus two joined workers on ephemeral ports."""

    def __init__(self, root) -> None:
        coordinator_config = CoordinatorConfig(
            root=str(root / "coordinator"),
            namespaces=(NS,),
            port=0,
            n_slots=N_SLOTS,
            replication=1,
            salt=SALT,
            heartbeat_s=3600.0,
        )
        self.coordinator = CoordinatorThread(coordinator_config)
        self.coordinator.start()
        self.client = ServiceClient(port=self.coordinator.service.port)
        self.workers: dict[str, ServiceThread] = {}
        self.worker_clients: dict[str, ServiceClient] = {}
        for worker_id in ("w1", "w2"):
            config = ServiceConfig(
                store_root=str(root / worker_id),
                namespaces=slot_namespace_configs(NS, N_SLOTS),
                port=0,
                compact_to=None,
                tick_s=3600.0,
            )
            thread = ServiceThread(config)
            thread.start()
            self.workers[worker_id] = thread
            worker_client = ServiceClient(port=thread.service.port)
            worker_client.wait_ready()
            self.worker_clients[worker_id] = worker_client
            self.client.cluster_join(
                worker_id, "127.0.0.1", thread.service.port
            )

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for thread in self.workers.values():
            thread.stop()
        for worker_client in self.worker_clients.values():
            worker_client.close()


@pytest.fixture
def cluster(tmp_path):
    built = ObsCluster(tmp_path)
    yield built
    built.close()


class TestClusterObservability:
    def test_cluster_query_trace_and_metrics(self, cluster):
        keys, weights = event_batch(0, n=60)
        with ClusterClient.from_coordinator(
            port=cluster.coordinator.service.port
        ) as router:
            router.ingest("web", keys, weights, sync=True)
            served = router.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False

        # -- the coordinator trace fans out: one root, one slot-fetch
        # child per contacted worker, all under the same trace ID
        spans = cluster.client.trace_recent(limit=200)["spans"]
        roots = [span for span in spans if span["name"] == "POST /query"]
        assert roots, "the query must open a coordinator request span"
        root = roots[0]
        fetches = [
            span for span in spans
            if span["name"] == "slot-fetch"
            and span["trace"] == root["trace"]
        ]
        contacted = {span["tags"]["worker"] for span in fetches}
        assert contacted == {"w1", "w2"}  # SALT=4 splits slots 2/2
        assert len(fetches) == len(contacted)  # one request per worker
        assert sorted(
            slot for span in fetches for slot in span["tags"]["slots"]
        ) == list(range(N_SLOTS))
        assert all(span["parent"] is not None for span in fetches)
        merges = [
            span for span in spans
            if span["name"] == "engine-build"
            and span["trace"] == root["trace"]
        ]
        assert merges and merges[0]["tags"]["bundles"] == N_SLOTS

        # -- the workers joined the same trace via X-Repro-Trace
        for worker_id, worker_client in cluster.worker_clients.items():
            worker_spans = worker_client.trace_recent(limit=200)["spans"]
            joined = [
                span for span in worker_spans
                if span["trace"] == root["trace"]
                and span["name"] == "GET /bundle"
            ]
            assert joined, (
                f"worker {worker_id} must record its bundle fetch "
                f"under the coordinator's trace"
            )
            assert all(
                span["parent"] is not None for span in joined
            ), "the worker span is a child of the slot-fetch span"
            assert any(
                span["name"] == "live-finalize"
                and span["trace"] == root["trace"]
                for span in worker_spans
            ), f"worker {worker_id} must show its live-window fold"

        # -- both layers expose parseable Prometheus text
        coordinator_samples = parse_prometheus_text(
            cluster.client.metrics()
        )
        fetch_counts = {
            key: value
            for key, value in coordinator_samples.items()
            if key[0] == "repro_cluster_slot_fetch_seconds_count"
        }
        assert {
            dict(labels)["worker"] for _name, labels in fetch_counts
        } == {"w1", "w2"}
        assert coordinator_samples[
            ("repro_engine_build_seconds_count", ())
        ] >= 1
        for worker_client in cluster.worker_clients.values():
            worker_samples = parse_prometheus_text(worker_client.metrics())
            assert worker_samples[
                ("repro_http_requests_total",
                 (("path", "/bundle"), ("status", "200")))
            ] >= 1


    def test_routed_ingest_is_one_trace_of_parallel_deliveries(self, cluster):
        """One routed batch: one coordinator trace, at most one
        ``deliver`` child per worker, each worker's request and
        ``ingest-apply`` spans hanging under its delivery."""
        keys, weights = event_batch(0, n=60)
        cluster.client.ingest("web", keys, weights, sync=True)
        spans = cluster.client.trace_recent(limit=200)["spans"]
        (root,) = [s for s in spans if s["name"] == "POST /ingest"]
        delivers = [
            s for s in spans
            if s["name"] == "deliver" and s["trace"] == root["trace"]
        ]
        assert 1 <= len(delivers) <= len(cluster.workers)
        assert {s["tags"]["worker"] for s in delivers} == {"w1", "w2"}
        assert all(s["parent"] == root["span"] for s in delivers)
        assert all(s["tags"]["outcome"] == "ack" for s in delivers)
        # SALT=4 splits the 4 slots 2/2; each frame carries its worker's
        assert sorted(
            slot for s in delivers for slot in s["tags"]["slots"]
        ) == list(range(N_SLOTS))
        assert sum(s["tags"]["events"] for s in delivers) == len(keys)
        assert all(s["tags"]["bytes"] > 0 for s in delivers)
        for deliver in delivers:
            worker_spans = cluster.worker_clients[
                deliver["tags"]["worker"]
            ].trace_recent(limit=200)["spans"]
            (request,) = [
                s for s in worker_spans
                if s["name"] == "POST /ingest"
                and s["trace"] == root["trace"]
            ]
            assert request["parent"] == deliver["span"]
            (apply,) = [
                s for s in worker_spans
                if s["name"] == "ingest-apply"
                and s["trace"] == root["trace"]
            ]
            assert apply["parent"] == request["span"]
            assert apply["tags"]["sections"] == len(deliver["tags"]["slots"])
            assert apply["tags"]["events"] == deliver["tags"]["events"]
        samples = parse_prometheus_text(cluster.client.metrics())
        assert {
            dict(labels)["worker"]: value
            for (name, labels), value in samples.items()
            if name == "repro_cluster_ingest_delivery_seconds_count"
        } == {"w1": 1, "w2": 1}
        # one frame per worker, not one request per (slot, replica)
        for worker_client in cluster.worker_clients.values():
            worker_samples = parse_prometheus_text(worker_client.metrics())
            assert worker_samples[
                ("repro_http_requests_total",
                 (("path", "/ingest"), ("status", "200")))
            ] == 1


class TestCliVerbs:
    def test_metrics_and_trace_verbs(self, service, capsys):
        _thread, client = service
        client.status()
        port = str(_thread.service.port)
        assert cli_main(["metrics", "--port", port]) == 0
        out = capsys.readouterr().out
        samples = parse_prometheus_text(out)
        assert any(
            key[0] == "repro_http_requests_total" for key in samples
        )
        assert cli_main(["trace", "--port", port, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "GET /status" in out
        assert cli_main(["trace", "--port", port, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["spans"]
