"""Durable runtime tier: revisions, persistent cache, concurrency.

Pins the PR-6 guarantees end to end:

* revision-derived version fingerprints move exactly when the manifest
  does (and the *bundle* fingerprint only when query-servable entries
  change);
* the persistent query-result cache survives store reopens, counts hits,
  and evicts coldest-first;
* two ``SummaryStore`` writer *processes* interleaving write / remove /
  compact against one root never lose a manifest entry — SQLite
  transactions replace the old cross-process lock file;
* a restarted service (fresh manager + planner over the same root after
  a clean checkpoint) answers a previously served query straight from
  the persistent cache, bit-identically, with the hit count moving;
* ``ServiceClient.wait_ready`` retries connection-level failures only —
  an HTTP-level error from a live server re-raises immediately.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.hashing import KeyHasher
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.windows import LiveWindowManager
from repro.store import RuntimeStore, SummaryStore

SALT = 13
ASSIGNMENTS = ["h1", "h2"]
T0 = datetime(2026, 7, 28, 12, 0, 30, tzinfo=timezone.utc).timestamp()
NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=9)


def make_bundle(key_range, seed=0, k=8, salt=SALT):
    """Small bundle over a dedicated key range (disjoint ranges merge)."""
    rng = np.random.default_rng(seed)
    engine = ShardedSummarizer(
        k=k, assignments=ASSIGNMENTS, hasher=KeyHasher(salt)
    )
    keys = np.arange(*key_range)
    for name in ASSIGNMENTS:
        engine.ingest(name, keys, rng.pareto(1.3, len(keys)) + 0.05)
    return engine.sketch_bundle()


# -- runtime tier unit behavior ------------------------------------------------


class TestRuntimeStore:
    def test_revisions_move_per_mutation(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        assert runtime.manifest_snapshot()["global_rev"] == 0
        runtime.record_mutation("a", bundles_changed=True)
        runtime.record_mutation("a", bundles_changed=False)
        runtime.record_mutation("b", bundles_changed=True)
        snapshot = runtime.manifest_snapshot()
        assert snapshot["global_rev"] == 3
        assert snapshot["revisions"]["a"] == (2, 1)  # one bundle change
        assert snapshot["revisions"]["b"] == (1, 1)

    def test_record_ingest_advances_the_ingest_seq(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        assert runtime.record_ingest("web", events=10) == 1
        assert runtime.record_ingest("web") == 2
        assert runtime.live_seqs("web") == (0, 2, 0)

    def test_counters_table_is_dropped_on_open(self, tmp_path):
        """Event counts live in each daemon's registry; a tier written by
        a version that kept a ``counters`` table loses it on open."""
        runtime = RuntimeStore(tmp_path)
        runtime._conn.executescript(
            "CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER);"
            "INSERT INTO counters VALUES ('cache_hits', 3);"
        )
        runtime.close()
        runtime = RuntimeStore(tmp_path)
        tables = {
            row["name"] for row in runtime._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "counters" not in tables and "query_cache" in tables
        assert "counters" not in runtime.stats()

    def test_cache_hit_counts_and_persistence(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        payload = {"estimate": 1.25, "version": "r3"}
        assert runtime.cache_get("q1") is None
        runtime.cache_put("q1", "web", "r3", payload)
        assert runtime.cache_get("q1") == payload
        assert runtime.cache_get("q1") == payload
        runtime.close()
        # A fresh handle on the same root sees the entry AND its history.
        reopened = RuntimeStore(tmp_path)
        assert reopened.cache_get("q1") == payload
        assert reopened.cache_stats() == {"entries": 1, "hits": 3}

    def test_cache_evicts_coldest_first(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        for name in ("cold", "warm", "hot"):
            runtime.cache_put(name, "web", "r1", {"q": name}, max_entries=3)
        runtime.cache_get("hot")
        runtime.cache_get("hot")
        runtime.cache_get("warm")
        runtime.cache_put("new", "web", "r1", {"q": "new"}, max_entries=3)
        assert runtime.cache_get("cold") is None  # zero hits: evicted
        assert runtime.cache_get("hot") == {"q": "hot"}
        assert runtime.cache_get("warm") == {"q": "warm"}

    def test_numpy_scalars_coerce_losslessly(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        value = np.float64(0.1) + np.float64(0.2)  # not representable tidily
        runtime.cache_put("q", "web", "r1", {"estimate": value, "n": np.int64(7)})
        cached = runtime.cache_get("q")
        assert cached["estimate"] == float(value)  # bit-identical round-trip
        assert cached["n"] == 7

    def test_unsupported_schema_version_refused(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        runtime.set_meta("schema_version", "99")
        runtime.close()
        with pytest.raises(ValueError, match="schema version 99"):
            RuntimeStore(tmp_path)


#: the schema-v1 tables the v1 → v2 upgrade looks at (v1 kept artifact
#: bytes in files under data/, named by ``manifest.path``)
_V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE manifest (
    namespace TEXT NOT NULL, bucket TEXT NOT NULL, part TEXT NOT NULL,
    kind TEXT NOT NULL, assignments TEXT NOT NULL, path TEXT NOT NULL,
    nbytes INTEGER NOT NULL, seq INTEGER NOT NULL,
    PRIMARY KEY (namespace, bucket, part)
);
CREATE INDEX manifest_seq ON manifest (seq);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
CREATE TABLE repairs (
    id INTEGER PRIMARY KEY AUTOINCREMENT, kind TEXT NOT NULL,
    slot INTEGER NOT NULL, target TEXT NOT NULL, source TEXT,
    status TEXT NOT NULL DEFAULT 'queued', reason TEXT, detail TEXT,
    attempts INTEGER NOT NULL DEFAULT 0, created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
INSERT INTO meta VALUES ('schema_version', '1');
INSERT INTO counters VALUES ('repairs_enqueued', 3);
INSERT INTO repairs (kind, slot, target, created_at, updated_at) VALUES
    ('re_replicate', 0, 'w1', 0, 0), ('re_replicate', 1, 'w1', 0, 0),
    ('anti_entropy', 2, 'w2', 0, 0);
"""


def make_v1_tier(root, manifest_rows=()):
    import sqlite3

    root.mkdir(parents=True, exist_ok=True)
    db = sqlite3.connect(root / "runtime.sqlite")
    db.execute("PRAGMA journal_mode = WAL")
    db.executescript(_V1_SCHEMA)
    for row in manifest_rows:
        db.execute(
            "INSERT INTO manifest VALUES (?, ?, ?, ?, ?, ?, ?, ?)", row
        )
    db.commit()
    db.close()


class TestSchemaUpgrade:
    def test_empty_v1_tier_is_refused_unchanged(self, tmp_path):
        """An empty v1 tier (every coordinator root of that release) is
        no longer upgraded in place: it is refused by the generic schema
        check, byte for byte as it was."""
        from repro.store import UnsupportedFormatError

        make_v1_tier(tmp_path)
        before = (tmp_path / "runtime.sqlite").read_bytes()
        for attempt in range(2):
            with pytest.raises(
                UnsupportedFormatError,
                match=r"schema version 1 .* is not supported",
            ):
                RuntimeStore(tmp_path)
        assert (tmp_path / "runtime.sqlite").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "runtime.sqlite"
        ]

    def test_v1_tier_with_artifacts_is_refused_unchanged(self, tmp_path):
        """A v1 manifest row names a file under data/ that this version
        never reads: the root is refused by name, byte for byte as it was,
        never opened as a store whose rows have no bytes."""
        from repro.store import UnsupportedFormatError

        make_v1_tier(tmp_path, [(
            "web", "20260728T1200", "part-0000", "bottomk",
            '["h1", "h2"]', "data/web/20260728T1200/part-0000.cws", 10, 1,
        )])
        before = (tmp_path / "runtime.sqlite").read_bytes()
        for attempt in range(2):
            with pytest.raises(
                UnsupportedFormatError,
                match=r"schema version 1 .* is not supported",
            ):
                SummaryStore(tmp_path, create=False)
        assert (tmp_path / "runtime.sqlite").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "runtime.sqlite"
        ]


class TestVersionTokens:
    def test_version_derives_from_revisions(self, tmp_path):
        store = SummaryStore(tmp_path)
        before = store.version()
        store.write("web", "20260728T1200", make_bundle((0, 40)))
        after_write = store.version()
        assert after_write != before
        assert store.version("web").startswith("web.")
        # O(1) tokens: repeated reads with no mutation are stable.
        assert store.version() == after_write

    def test_bundle_version_ignores_checkpoints(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("web", "20260728T1200", make_bundle((0, 40)))
        bundle_before = store.bundle_version("web")
        version_before = store.version("web")
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi(["k1"], {"h1": [1.0], "h2": [2.0]})
        store.write(
            "web", "20260728T1201", summarizer.checkpoint_state(),
            part="live-window",
        )
        # The namespace revision moved; the query-servable fingerprint
        # did not — which is what keeps cached answers valid across a
        # shutdown-checkpoint -> restart cycle.
        assert store.version("web") != version_before
        assert store.bundle_version("web") == bundle_before


# -- cross-process concurrency -------------------------------------------------

BUCKET = "20260728T1200"
HOUR_BUCKET = "20260728T12"


def _slot_writer(root, lo: int, n: int) -> None:
    """Write ``n`` bundles into one shared (namespace, bucket) slot."""
    store = SummaryStore(root)
    for i in range(n):
        start = lo + i * 10
        store.write("web", BUCKET, make_bundle((start, start + 10), seed=start))


def _mixed_writer(root, namespace: str, base_seed: int) -> None:
    """Interleave write / remove / compact inside one namespace."""
    store = SummaryStore(root)
    parts = []
    for i in range(4):
        start = base_seed + i * 10
        entry = store.write(
            namespace, f"20260728T120{i}",
            make_bundle((start, start + 10), seed=start),
        )
        parts.append(entry)
    store.remove(namespace, parts[3].bucket, parts[3].part)
    store.compact(namespace, to="hour")


class TestCrossProcess:
    def spawn(self, target, *args_list):
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=target, args=args) for args in args_list
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

    def test_concurrent_writers_lose_no_entries(self, tmp_path):
        n = 8
        self.spawn(_slot_writer, (tmp_path, 0, n), (tmp_path, 1000, n))
        store = SummaryStore(tmp_path, create=False)
        listing = store.entries("web", buckets=[BUCKET])
        # Every write from both processes landed: transactional part
        # allocation never hands two writers the same slot.
        assert len(listing) == 2 * n
        assert len({entry.part for entry in listing}) == 2 * n
        for entry in listing:
            store.load(entry)  # its bytes landed with its row
        assert store.runtime.manifest_snapshot()["global_rev"] == 2 * n

    def test_concurrent_mixed_mutations_stay_exact(self, tmp_path):
        self.spawn(
            _mixed_writer, (tmp_path, "web", 0), (tmp_path, "dns", 5000)
        )
        store = SummaryStore(tmp_path, create=False)
        for namespace, base_seed in (("web", 0), ("dns", 5000)):
            listing = store.entries(namespace)
            assert [e.bucket for e in listing] == [HOUR_BUCKET]
            # The rolled-up artifact equals the in-memory merge of the
            # three bundles the writer kept (the fourth was removed).
            kept = [
                make_bundle((start, start + 10), seed=start)
                for start in (base_seed, base_seed + 10, base_seed + 20)
            ]
            expected = QueryEngine.from_bundles(kept)
            actual = QueryEngine.from_bundles([store.load(listing[0])])
            spec = AggregationSpec("max", tuple(ASSIGNMENTS))
            assert actual.estimate(spec) == expected.estimate(spec)


# -- restart serves from the persistent cache ---------------------------------


def service_stack(root):
    store = SummaryStore(root)
    manager = LiveWindowManager(store, [NS], clock=lambda: T0)
    return store, manager, QueryPlanner(manager)


def ingest_batch(manager, lo: int = 0, n: int = 20) -> None:
    keys = [f"k{i}" for i in range(lo, lo + n)]
    w1 = np.linspace(1.0, 3.0, n)
    manager.ingest("web", keys, {"h1": w1, "h2": w1 * 2.0})


class TestRestartCache:
    def test_clean_restart_hits_persistent_cache(self, tmp_path):
        store, manager, planner = service_stack(tmp_path)
        ingest_batch(manager)
        first = planner.estimate("web", "max", ASSIGNMENTS)
        assert first["cached"] is False
        repeat = planner.estimate("web", "max", ASSIGNMENTS)
        assert repeat["cached"] is True
        assert repeat["estimate"] == first["estimate"]
        manager.checkpoint()  # clean shutdown
        hits_before = store.runtime.cache_stats()["hits"]
        store.runtime.close()

        store2, _manager2, planner2 = service_stack(tmp_path)
        served = planner2.estimate("web", "max", ASSIGNMENTS)
        # Same version token across the restart -> the stored answer is
        # served as-is: bit-identical, no engine build, hit count moving.
        assert served["cached"] is True
        assert served["estimate"] == first["estimate"]
        assert served["version"] == first["version"]
        assert store2.runtime.cache_stats()["hits"] == hits_before + 1
        assert planner2.stats["engine_builds"] == 0

    def test_unclean_restart_invalidates_the_token(self, tmp_path):
        store, manager, planner = service_stack(tmp_path)
        ingest_batch(manager)
        manager.checkpoint()
        ingest_batch(manager, lo=100)  # ingested but never checkpointed
        first = planner.estimate("web", "max", ASSIGNMENTS)
        store.runtime.close()

        # "Crash": the live window's post-checkpoint events are gone.
        # The resumed state differs, so the old token must not survive.
        _store2, manager2, planner2 = service_stack(tmp_path)
        served = planner2.estimate("web", "max", ASSIGNMENTS)
        assert manager2.version("web") != first["version"]
        assert served["cached"] is False


# -- wait_ready error discipline ----------------------------------------------


class _AlwaysFailingHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        body = json.dumps({"error": "store is corrupt"}).encode()
        self.send_response(500)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output quiet
        pass


class TestWaitReady:
    def test_http_errors_reraise_immediately(self):
        server = HTTPServer(("127.0.0.1", 0), _AlwaysFailingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient("127.0.0.1", server.server_port)
            started = time.monotonic()
            with pytest.raises(ServiceError, match="store is corrupt"):
                client.wait_ready(timeout=30.0)
            # A server answered: no silent retrying until the deadline.
            assert time.monotonic() - started < 10.0
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_connection_failures_retry_until_deadline(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient("127.0.0.1", port, timeout=0.2)
        started = time.monotonic()
        with pytest.raises(OSError):
            client.wait_ready(timeout=0.5)
        assert time.monotonic() - started >= 0.4
