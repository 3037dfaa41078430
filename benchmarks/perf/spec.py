"""The benchmark's fixed definitions: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is the driver's copy of the
names, units, directions and bounds below; ``tests/test_contract.py``
fails when the two disagree.  Sizes are operation counts, never seconds,
so a faster program does the same work in less time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

NAMESPACE = "bench"
FUNCTIONS = ("max", "min", "l1", "single")
#: fewest timed rounds a run reports from, whatever ``--seconds`` says
MIN_ROUNDS = 5


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    about: str
    #: allowed worsening as a share of the parent's median (end-to-end only)
    bound: float | None = None


@dataclass(frozen=True)
class Workload:
    """One scripted traffic mix; every size is a count of operations."""

    name: str
    why: str
    adapter: str  # "library" | "serve" | "cluster"
    k: int
    assignments: tuple[str, ...]
    #: live keys are drawn (with repeats, skewed) from [0, universe)
    universe: int
    load_batches: int
    load_events: int
    live_steps: int
    live_events: int
    #: warm predicate queries after each live step's fresh query
    live_warm: int
    quiet: int
    #: result-cache replays of the first quiet queries (served only)
    replay: int
    predicate_keys: int = 64
    #: day-buckets written into the store before the SUT starts
    preload_buckets: int = 0
    preload_keys: int = 0
    slots: int = 0
    replication: int = 0

    def smoke(self) -> "Workload":
        """A seconds-long copy for the harness tests (``--smoke``)."""
        return replace(
            self,
            load_batches=3,
            load_events=min(self.load_events, 400),
            live_steps=25,  # x2 rounds: the fewest p90 may be taken from
            live_events=min(self.live_events, 200),
            live_warm=1,
            quiet=50,
            replay=min(self.replay, 4),
            preload_buckets=min(self.preload_buckets, 2),
            preload_keys=min(self.preload_keys, 500),
        )


WORKLOADS = {w.name: w for w in (
    Workload(
        name="offline_batch",
        why="library only: sampling, engine and estimator kernels do all "
            "the work, so a JSON/HTTP/planner change must show no movement",
        adapter="library", k=1024, assignments=("a0", "a1", "a2", "a3"),
        universe=400_000,
        load_batches=6, load_events=20_000,
        live_steps=10, live_events=2_000, live_warm=2,
        quiet=400, replay=0,
    ),
    Workload(
        name="serve_ingest",
        why="one daemon, empty store, write-heavy: request parse, "
            "LiveWindowManager.ingest, runtime.sqlite record_ingest and "
            "one large finalization dominate",
        adapter="serve", k=256, assignments=("a0", "a1"),
        universe=400_000,
        load_batches=100, load_events=2_000,
        live_steps=10, live_events=2_000, live_warm=3,
        quiet=300, replay=100,
    ),
    Workload(
        name="serve_mixed",
        why="one daemon beside 8 stored day-buckets: every fresh query "
            "reloads, decodes, merges and rebuilds, so planner, store, "
            "codec and merge dominate; read-beside-write",
        adapter="serve", k=1024, assignments=("a0", "a1"),
        universe=100_000,
        load_batches=20, load_events=500,
        live_steps=30, live_events=200, live_warm=2,
        quiet=300, replay=100,
        preload_buckets=8, preload_keys=20_000,
    ),
    Workload(
        name="cluster_mixed",
        why="coordinator + 2 workers, 8 slots x2: slot slicing, per-replica "
            "JSON re-encode and the serial 8-slot bundle gather exist "
            "nowhere else",
        adapter="cluster", k=256, assignments=("a0", "a1"),
        universe=100_000,
        load_batches=10, load_events=400,
        live_steps=10, live_events=400, live_warm=1,
        quiet=40, replay=10,
        slots=8, replication=2,
    ),
)}


#: Allowed worsening of a time.  The host is a shared microVM whose speed
#: moves in regimes that outlast a run: identical code measured ten times
#: spreads (IQR / median) 2-4 % in a calm hour and 10-25 % in a contended
#: one, so no tighter bound can be held by two sets of runs an hour apart.
_TIME_BOUND = 0.25

END_TO_END = (
    Metric("setup_s", "s", "lower",
           "SUT launch to ready to serve, per round", _TIME_BOUND),
    Metric("ingest_events_per_s", "events/s", "higher",
           "load events / (first send to first full-population answer)",
           _TIME_BOUND),
    Metric("fresh_query_p50_ms", "ms", "lower",
           "first query after each live batch", _TIME_BOUND),
    Metric("fresh_query_p90_ms", "ms", "lower",
           "same, p90 (late in the live phase, on the largest window)",
           _TIME_BOUND),
    Metric("warm_query_p50_ms", "ms", "lower",
           "unseen predicate on an unchanged version", _TIME_BOUND),
    Metric("warm_query_p90_ms", "ms", "lower", "same, p90", _TIME_BOUND),
    Metric("warm_queries_per_s", "queries/s", "higher",
           "quiet-phase queries / phase wall time, one client", _TIME_BOUND),
    Metric("sut_cpu_s", "s", "lower",
           "user+system CPU of all SUT processes over one round's script",
           _TIME_BOUND),
    Metric("sut_rss_mb", "MiB", "lower",
           "sum of VmHWM of all SUT processes at the end of a round", 0.05),
)

#: time groups a span is charged to, and the script phases shares are taken of
GROUPS = ("sampling", "query", "store", "service", "cluster", "transport")
SHARE_SCOPES = ("script", "load", "live", "quiet")


def _layer(name: str, unit: str, about: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, about)


PER_LAYER = (
    _layer("ranks.hash_rank_ns_per_event", "ns",
           "KeyHasher.hash_array + IppsRanks.ranks_array"),
    _layer("sampling.process_batch_ns_per_event", "ns",
           "BottomKStreamSampler.process_batch, 1 M items"),
    _layer("engine.ingest_multi_ns_per_event", "ns",
           "ShardedSummarizer.ingest_multi (buffering only)"),
    _layer("engine.finalize_ms", "ms",
           "ShardedSummarizer.summary() after new data, load-sized window"),
    _layer("engine.finalize_ns_per_buffered_event", "ns",
           "slope of finalize time over two window sizes"),
    _layer("engine.merge_bottomk_us", "us", "merge_bottomk of 9 sketches"),
    _layer("engine.from_bundles_ms", "ms",
           "QueryEngine.from_bundles of 9 bundles"),
    _layer("engine.from_encoded_bundles_ms", "ms",
           "QueryEngine.from_encoded_bundles of 8 blobs"),
    *(_layer(f"engine.estimate_us.{fn}", "us",
             f"QueryEngine.estimate({fn}) with a key_in predicate, warm")
      for fn in FUNCTIONS),
    *(_layer(f"estimators.kernel_us.{kernel}", "us",
             f"{kernel} kernel, first call on a fresh engine")
      for kernel in ("sset", "lset", "l1", "colocated")),
    _layer("core.summary_build_ms", "ms", "build_summary_from_sketches"),
    _layer("store.codec_encode_ms", "ms", "codec.encode of one bundle"),
    _layer("store.codec_decode_ms", "ms", "codec.decode of one bundle"),
    _layer("store.bundle_bytes", "count", "encoded size of one bundle"),
    _layer("store.write_ms", "ms", "SummaryStore.write of one bundle"),
    _layer("store.load_ms", "ms", "SummaryStore.load of one bundle"),
    _layer("store.runtime_record_ingest_us", "us",
           "RuntimeStore.record_ingest"),
    _layer("store.runtime_cache_get_us", "us", "RuntimeStore.cache_get, hit"),
    _layer("store.runtime_cache_put_us", "us", "RuntimeStore.cache_put"),
    _layer("store.disk_bytes_per_kevent", "count",
           "checkpointed store size / thousand buffered events"),
    _layer("service.parse_ingest_ns_per_event", "ns",
           "json.loads + weight validation of one ingest body"),
    _layer("service.encode_answer_us", "us", "jsonutil.dumps_strict"),
    _layer("service.windows_ingest_us", "us",
           "LiveWindowManager.ingest of one batch"),
    _layer("service.live_bundle_ms", "ms",
           "LiveWindowManager.live_bundle after new data"),
    _layer("service.planner_fresh_ms", "ms",
           "QueryPlanner.estimate after new data"),
    _layer("service.planner_warm_us", "us",
           "QueryPlanner.estimate, engine cached, result miss"),
    _layer("service.planner_hit_us", "us",
           "QueryPlanner.estimate, result-cache hit"),
    _layer("service.transport_us", "us",
           "served warm query minus its in-process replay"),
    _layer("service.health_rtt_us", "us", "GET /health round trip"),
    _layer("service.ingest_ack_p50_ms", "ms", "sync ingest ack, load phase"),
    _layer("service.ingest_ack_p95_ms", "ms", "same, p95"),
    _layer("service.result_hit_p50_ms", "ms",
           "replayed query served from the result cache"),
    _layer("service.resume_s", "s",
           "restart onto the checkpointed end-of-script window"),
    _layer("service.engine_builds", "count",
           "planner engine builds over one script (/status)"),
    _layer("service.result_hits", "count", "result-cache hits (/status)"),
    _layer("service.result_misses", "count",
           "result-cache misses (/status)"),
    _layer("service.rejected_batches", "count",
           "429-rejected ingest batches (/status); must be 0"),
    _layer("cluster.slots_for_keys_ns_per_event", "ns",
           "ClusterTopology.slots_for_keys"),
    _layer("cluster.plan_batch_us", "us",
           "ClusterClient.plan_batch of one batch"),
    _layer("cluster.route_ingest_ms", "ms",
           "coordinator ingest ack minus the workers' own handling"),
    _layer("cluster.gather_ms", "ms",
           "ServiceClient.bundle over every slot, serial"),
    _layer("cluster.gather_bytes", "count", "bytes of one full gather"),
    _layer("obs.span_us", "us", "Tracer.span enter+exit"),
    _layer("obs.render_ms", "ms", "MetricsRegistry.render of a daemon's set"),
    _layer("obs.trace_overhead_share", "ratio",
           "harness spans on vs off, in-process replay of the script"),
    _layer("service.conc_query_p50_ms", "ms",
           "query p50 beside a second connection's async ingest "
           "(informational)"),
    _layer("service.conc_ingest_ack_p95_ms", "ms",
           "async ingest ack p95 beside queries (informational)"),
    _layer("service.async_rejected_share", "ratio",
           "429 share of async batches (informational)"),
    _layer("answer_rel_err", "ratio",
           "mean relative error of the full-population answers against "
           "exact values; repeats exactly for a seed, not across seeds"),
    *(_layer(f"share.{scope}.{group}", "ratio",
             f"{group} self time / {scope} op time, this workload's script")
      for scope in SHARE_SCOPES for group in GROUPS),
    _layer("harness.probe_errors", "count",
           "layer probes that raised (a renamed entry point); must be 0"),
)
