"""Unit tests for the observability subsystem (repro.obs).

Metrics: bucket boundary math, overflow behaviour, quantile derivation,
registry get-or-create semantics, exposition round-trip through the
bundled Prometheus text parser, and thread-safety of counters and
histograms under concurrent writers.

Tracing: deterministic splitmix64 ID streams under a fixed seed, header
format/parse round-trips, contextvar parent propagation (including
across an executor-thread boundary via ``bind_parent``), ring-buffer
bounds, error marking, and the JSONL sink.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    TRACE_HEADER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    bind_parent,
    current_span,
    current_trace_header,
    default_tracer,
    format_trace_header,
    parse_prometheus_text,
    parse_trace_header,
    quantile_from_buckets,
)


class TestDefaultBuckets:
    def test_log_spaced_four_per_decade(self):
        edges = DEFAULT_LATENCY_BUCKETS
        assert len(edges) == 24
        assert edges[0] == pytest.approx(1e-4)
        assert edges[4] == pytest.approx(1e-3)
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert all(r == pytest.approx(10 ** 0.25, rel=1e-6) for r in ratios)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("c_total", "help", labelnames=("path",))
        counter.inc(path="/query")
        counter.inc(3, path="/ingest")
        assert counter.value(path="/query") == 1
        assert counter.value(path="/ingest") == 3

    def test_label_mismatch_rejected(self):
        counter = Counter("c_total", "help", labelnames=("path",))
        with pytest.raises(ValueError, match="do not match"):
            counter.inc(route="/query")
        with pytest.raises(ValueError, match="use .labels"):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13

    def test_callback_gauge_reads_at_scrape_time(self):
        box = {"depth": 0}
        gauge = Gauge("g", "help", callback=lambda: box["depth"])
        assert gauge.value() == 0
        box["depth"] = 7
        assert gauge.value() == 7

    def test_callback_failure_renders_nan_not_raise(self):
        def broken():
            raise RuntimeError("source closed mid-shutdown")

        gauge = Gauge("g", "help", callback=broken)
        assert math.isnan(gauge.value())

    def test_callback_with_labels_rejected(self):
        with pytest.raises(ValueError, match="cannot declare labels"):
            Gauge("g", "help", labelnames=("x",), callback=lambda: 0)


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus `le` semantics: a value exactly on an upper edge
        # counts in that bucket, not the next.
        hist = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(2.0000001)
        child = hist._default_child()
        counts, total, total_sum = child.snapshot()
        assert counts == [1, 1, 1, 0]
        assert total == 3
        assert total_sum == pytest.approx(5.0000001)

    def test_overflow_bucket(self):
        hist = Histogram("h", "help", buckets=(1.0, 2.0))
        hist.observe(100.0)
        counts, total, _ = hist._default_child().snapshot()
        assert counts == [0, 0, 1]
        assert total == 1

    def test_trailing_inf_bucket_is_implicit(self):
        hist = Histogram("h", "help", buckets=(1.0, 2.0, math.inf))
        assert hist.buckets == (1.0, 2.0)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", "help", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", "help", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", "help", buckets=(2.0, 1.0))


class TestQuantiles:
    def test_quantile_log_interpolates_within_bucket(self):
        # 100 observations all in bucket (1.0, 10.0]: p50 sits at the
        # log-midpoint of the bucket, not the arithmetic midpoint.
        uppers = (1.0, 10.0)
        counts = [0, 100, 0]
        p50 = quantile_from_buckets(uppers, counts, 100, 0.5)
        assert p50 == pytest.approx(math.sqrt(10.0))

    def test_quantile_first_bucket_returns_edge(self):
        uppers = (1.0, 2.0)
        assert quantile_from_buckets(uppers, [10, 0, 0], 10, 0.5) == 1.0

    def test_quantile_overflow_clamps_to_last_edge(self):
        uppers = (1.0, 2.0)
        assert quantile_from_buckets(uppers, [0, 0, 5], 5, 0.99) == 2.0

    def test_quantile_empty_is_nan(self):
        assert math.isnan(quantile_from_buckets((1.0,), [0, 0], 0, 0.5))

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantile_from_buckets((1.0,), [1, 0], 1, 1.5)

    def test_histogram_quantile_spread(self):
        hist = Histogram("h", "help", buckets=DEFAULT_LATENCY_BUCKETS)
        for _ in range(90):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(1.0)
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        assert p50 <= 0.001 * 10 ** 0.25  # within the 1ms bucket
        assert 0.5 <= p99 <= 1.01
        assert p50 < p99


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        again = registry.counter("c_total", "other help ignored")
        assert first is again
        assert registry.get("c_total") is first
        assert registry.get("missing") is None

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError, match="already registered as"):
            registry.gauge("x", "help")

    def test_labelname_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered with"):
            registry.counter("x", "help", labelnames=("b",))

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("2bad", "help")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok", "help", labelnames=("bad-label",))

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total", "", labelnames=("path",))
        hist = registry.histogram("h_seconds", "")
        counter.inc(path="/query")
        hist.observe(0.5)
        registry.gauge("depth", "").set(3)  # state, not a count: still set
        samples = parse_prometheus_text(registry.render())
        assert samples == {("depth", ()): 3}
        assert counter.count() == 0 and hist.count() == 0


class TestCounts:
    def test_count_reads_a_series_or_the_sum_without_creating_one(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "c_total", "", labelnames=("path", "status")
        )
        counter.inc(2, path="/query", status="200")
        counter.inc(path="/query", status="404")
        counter.inc(path="/ingest", status="200")
        assert counter.count() == 4
        assert counter.count(path="/query", status="404") == 1
        assert counter.count(path="/bundle", status="200") == 0
        with pytest.raises(ValueError, match="do not match"):
            counter.count(path="/query")
        hist = registry.histogram("h_seconds", "", labelnames=("path",))
        hist.observe(0.1, path="/query")
        hist.observe(9.0, path="/query")
        assert hist.count() == 2 and hist.count(path="/ingest") == 0
        # reading created no series: only the observed paths render
        rendered = parse_prometheus_text(registry.render())
        assert {dict(labels)["path"] for _name, labels in rendered} == {
            "/query", "/ingest",
        }

    def test_counts_is_a_live_read_only_view(self):
        registry = MetricsRegistry()
        lookups = registry.counter("l_total", "", labelnames=("outcome",))
        registry.histogram("build_seconds", "").observe(0.2)
        view = registry.counts({
            "hits": ("l_total", {"outcome": "hit"}),
            "lookups": "l_total",
            "builds": "build_seconds",
        })
        assert dict(view) == {"hits": 0, "lookups": 0, "builds": 1}
        lookups.inc(outcome="hit")
        lookups.inc(outcome="miss")
        assert view["hits"] == 1 and view["lookups"] == 2
        assert list(view) == ["hits", "lookups", "builds"]
        with pytest.raises(TypeError):
            view["hits"] = 5


class TestExpositionRoundTrip:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "req_total", "requests", labelnames=("path", "status")
        ).inc(3, path="/query", status="200")
        registry.gauge("depth", "queue depth").set(4)
        hist = registry.histogram("lat_seconds", "latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render()
        assert "# HELP req_total requests" in text
        assert "# TYPE lat_seconds histogram" in text
        samples = parse_prometheus_text(text)
        assert samples[
            ("req_total", (("path", "/query"), ("status", "200")))
        ] == 3
        assert samples[("depth", ())] == 4
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 2
        assert samples[("lat_seconds_count", ())] == 2
        assert samples[("lat_seconds_sum", ())] == pytest.approx(5.05)

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        weird = 'a"b\\c\nd'
        registry.counter("c_total", "", labelnames=("p",)).inc(p=weird)
        samples = parse_prometheus_text(registry.render())
        assert samples[("c_total", (("p", weird),))] == 1

    def test_special_values_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf", "").set(math.inf)
        registry.gauge("g_nan", "").set(math.nan)
        samples = parse_prometheus_text(registry.render())
        assert samples[("g_inf", ())] == math.inf
        assert math.isnan(samples[("g_nan", ())])

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="invalid Prometheus"):
            parse_prometheus_text("not a sample line at all ! ! !")

    def test_callback_gauge_appears_in_scrape_without_touch(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "", callback=lambda: 9)
        samples = parse_prometheus_text(registry.render())
        assert samples[("depth", ())] == 9


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", labelnames=("worker",))
        hist = registry.histogram("h_seconds", "", buckets=(0.5, 1.0))
        n_threads, n_iter = 8, 2_000

        def hammer(worker: int) -> None:
            for i in range(n_iter):
                counter.inc(worker=str(worker % 2))
                hist.observe((i % 3) * 0.4)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="0") == n_threads // 2 * n_iter
        assert counter.value(worker="1") == n_threads // 2 * n_iter
        counts, total, _ = hist._default_child().snapshot()
        assert total == n_threads * n_iter
        assert sum(counts) == total


class TestTraceIds:
    def test_fixed_seed_gives_reproducible_id_stream(self):
        spans_a = [Tracer(seed=42).span(f"s{i}") for i in range(4)]
        first = Tracer(seed=42)
        second = Tracer(seed=42)
        ids_first = [
            (s.trace_id, s.span_id)
            for s in (first.span(f"s{i}") for i in range(4))
        ]
        ids_second = [
            (s.trace_id, s.span_id)
            for s in (second.span(f"s{i}") for i in range(4))
        ]
        assert ids_first == ids_second
        assert len({t for t, _ in ids_first}) == 4  # distinct roots
        del spans_a

    def test_different_seeds_diverge(self):
        a = Tracer(seed=1).span("x")
        b = Tracer(seed=2).span("x")
        assert (a.trace_id, a.span_id) != (b.trace_id, b.span_id)

    def test_ids_never_zero(self):
        tracer = Tracer(seed=7)
        for _ in range(100):
            span = tracer.span("x")
            assert span.trace_id != 0 and span.span_id != 0


class TestTraceHeader:
    def test_format_parse_round_trip(self):
        span = Tracer(seed=3).span("x")
        header = format_trace_header(span)
        assert parse_trace_header(header) == (span.trace_id, span.span_id)
        assert len(header) == 33 and header[16] == "-"

    @pytest.mark.parametrize("bad", [
        None, "", "deadbeef", "xyz-123", "0-0", "-", "12-", "-12",
        "ffffffffffffffffff-1",  # > 64 bits
    ])
    def test_malformed_headers_parse_to_none(self, bad):
        assert parse_trace_header(bad) is None

    def test_header_constant(self):
        assert TRACE_HEADER == "X-Repro-Trace"


class TestSpans:
    def test_child_inherits_trace_and_parent(self):
        tracer = Tracer(seed=5)
        with tracer.span("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        assert current_span() is None

    def test_begin_request_joins_remote_trace(self):
        upstream = Tracer(seed=1)
        downstream = Tracer(seed=2)
        with upstream.span("caller") as caller:
            header = caller.header()
        span = downstream.begin_request("GET /bundle", header=header)
        assert span.trace_id == caller.trace_id
        assert span.parent_id == caller.span_id

    def test_begin_request_bad_header_starts_fresh_root(self):
        tracer = Tracer(seed=2)
        span = tracer.begin_request("GET /query", header="garbage")
        assert span.parent_id is None and span.trace_id != 0

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer(seed=9)
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("work"):
                raise RuntimeError("boom")
        row = tracer.recent(1)[0]
        assert row["status"] == "error" and row["error"] == "boom"

    def test_annotate_and_fail(self):
        tracer = Tracer(seed=9)
        with tracer.span("work", namespace="web") as span:
            span.annotate(outcome="hit")
            span.fail("soft failure")
        row = tracer.recent(1)[0]
        assert row["tags"] == {"namespace": "web", "outcome": "hit"}
        assert row["status"] == "error"
        assert row["error"] == "soft failure"

    def test_current_trace_header_tracks_active_span(self):
        tracer = Tracer(seed=4)
        assert current_trace_header() is None
        with tracer.span("root") as span:
            assert current_trace_header() == span.header()
        assert current_trace_header() is None

    def test_bind_parent_carries_span_across_threads(self):
        tracer = Tracer(seed=6)
        seen = {}

        def work():
            seen["span"] = current_span()
            return 42

        with tracer.span("request") as span:
            thread = threading.Thread(
                target=lambda: seen.setdefault(
                    "result", bind_parent(span, work)
                )
            )
            thread.start()
            thread.join()
        assert seen["span"] is span
        assert seen["result"] == 42
        assert current_span() is None


class TestTracerRing:
    def test_ring_is_bounded_and_newest_first(self):
        tracer = Tracer(seed=1, capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        names = [row["name"] for row in tracer.recent(10)]
        assert names == ["s4", "s3", "s2"]
        assert [row["name"] for row in tracer.recent(1)] == ["s4"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(seed=1, enabled=False)
        with tracer.span("invisible") as span:
            assert not span.recording
            assert current_trace_header() is None
        assert tracer.recent() == []

    def test_jsonl_log_sink(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(seed=11, log_path=log)
        with tracer.span("a", k="v"):
            pass
        with tracer.span("b"):
            pass
        tracer.close()
        rows = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert [row["name"] for row in rows] == ["a", "b"]
        assert rows[0]["tags"] == {"k": "v"}
        assert tracer.dropped == 0

    def test_log_write_failure_counts_dropped(self, tmp_path):
        tracer = Tracer(seed=11, log_path=tmp_path / "missing" / "t.jsonl")
        with tracer.span("a"):
            pass
        assert tracer.dropped == 1  # parent dir absent: OSError swallowed
        assert len(tracer.recent()) == 1  # the ring still got the span

    def test_default_tracer_is_singleton(self):
        assert default_tracer() is default_tracer()
