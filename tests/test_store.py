"""SummaryStore behavior: buckets, manifest, transactions, exact rollups.

The acceptance property pinned here: a compacted (rolled-up) store answers
QueryEngine estimates *identically* to merging the raw shard artifacts in
memory — compaction is pure, exact sketch algebra.
"""

from __future__ import annotations

import json
import sqlite3
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.families import IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler
from repro.store import (
    CodecError,
    SketchBundle,
    SummaryStore,
    bucket_for,
    bucket_granularity,
    coarsen_bucket,
)

SALT = 13
ASSIGNMENTS = ["h1", "h2"]


def artifact_keys(root) -> list[tuple[str, str, str]]:
    """The (namespace, bucket, part) keys of every stored artifact's bytes,
    read straight from the runtime tier."""
    with sqlite3.connect(f"file:{root}/runtime.sqlite?mode=ro", uri=True) as db:
        return sorted(db.execute(
            "SELECT namespace, bucket, part FROM artifacts"
        ).fetchall())


def make_bundle(key_range, seed=0, k=40, salt=SALT) -> SketchBundle:
    """Bundle over a dedicated key range (disjoint ranges merge exactly)."""
    rng = np.random.default_rng(seed)
    engine = ShardedSummarizer(
        k=k, assignments=ASSIGNMENTS, hasher=KeyHasher(salt)
    )
    keys = np.arange(*key_range)
    for name in ASSIGNMENTS:
        engine.ingest(name, keys, rng.pareto(1.3, len(keys)) + 0.05)
    return engine.sketch_bundle()


class TestBuckets:
    @pytest.mark.parametrize(
        "bucket,granularity",
        [
            ("20260728T1201", "minute"),
            ("20260728T12", "hour"),
            ("20260728", "day"),
        ],
    )
    def test_granularity_inference(self, bucket, granularity):
        assert bucket_granularity(bucket) == granularity

    @pytest.mark.parametrize(
        "bad", ["2026-07-28", "20260728T", "20261340", "20260728T2561", "x"]
    )
    def test_invalid_bucket_ids(self, bad):
        with pytest.raises(ValueError, match="bucket"):
            bucket_granularity(bad)

    def test_coarsen(self):
        assert coarsen_bucket("20260728T1201", "hour") == "20260728T12"
        assert coarsen_bucket("20260728T1201", "day") == "20260728"
        assert coarsen_bucket("20260728T12", "hour") == "20260728T12"

    def test_coarsen_rejects_refinement(self):
        with pytest.raises(ValueError, match="finer"):
            coarsen_bucket("20260728", "minute")

    def test_bucket_for(self):
        when = datetime(2026, 7, 28, 12, 1, 30, tzinfo=timezone.utc)
        assert bucket_for(when) == "20260728T1201"
        assert bucket_for(when, "hour") == "20260728T12"
        assert bucket_for(when.timestamp(), "day") == "20260728"

    def test_bucket_for_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            bucket_for(0.0, "week")


class TestWriteRead:
    def test_write_load_round_trip(self, tmp_path):
        store = SummaryStore(tmp_path)
        bundle = make_bundle((0, 500))
        entry = store.write("flows", "20260728T1201", bundle)
        assert entry.kind == "bottomk"
        assert entry.assignments == ("h1", "h2")
        assert store.load(entry).equals(bundle)
        assert store.read("flows", "20260728T1201", entry.part).equals(bundle)

    def test_manifest_survives_reopen(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T1201", make_bundle((0, 100)))
        reopened = SummaryStore(tmp_path, create=False)
        assert [e.bucket for e in reopened.entries("flows")] == ["20260728T1201"]

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            SummaryStore(tmp_path / "nope", create=False)

    def test_auto_part_naming(self, tmp_path):
        store = SummaryStore(tmp_path)
        bundle = make_bundle((0, 50))
        first = store.write("flows", "20260728T1201", bundle)
        second = store.write("flows", "20260728T1201", make_bundle((50, 100)))
        assert (first.part, second.part) == ("part-0000", "part-0001")

    def test_overwrite_guard(self, tmp_path):
        store = SummaryStore(tmp_path)
        bundle = make_bundle((0, 50))
        store.write("flows", "20260728T1201", bundle, part="p")
        with pytest.raises(FileExistsError, match="overwrite"):
            store.write("flows", "20260728T1201", bundle, part="p")
        replaced = store.write(
            "flows", "20260728T1201", make_bundle((50, 80)), part="p",
            overwrite=True,
        )
        assert len(store.entries("flows")) == 1
        assert store.load(replaced).assignments == ["h1", "h2"]

    @pytest.mark.parametrize("bad", ["", "a/b", "../up", ".hidden", "-x"])
    def test_invalid_names_rejected(self, tmp_path, bad):
        store = SummaryStore(tmp_path)
        with pytest.raises(ValueError, match="invalid"):
            store.write(bad, "20260728", make_bundle((0, 10)))

    def test_unsupported_artifact_type(self, tmp_path):
        store = SummaryStore(tmp_path)
        with pytest.raises(CodecError, match="store holds"):
            store.write("flows", "20260728", object())

    def test_stored_summary_artifact(self, tmp_path):
        store = SummaryStore(tmp_path)
        summary = make_bundle((0, 200)).summary()
        entry = store.write("reports", "20260728", summary)
        assert entry.kind == "summary"
        assert store.load(entry).equals(summary)

    @pytest.mark.parametrize("create", [True, False])
    def test_legacy_manifest_root_refuses_to_open(self, tmp_path, create):
        """A pre-runtime-tier root (``manifest.json``, no ``runtime.sqlite``)
        is refused by name and left byte-for-byte as it was — never
        opened as an empty store over the artifacts the manifest lists."""
        from repro.store import UnsupportedFormatError
        from repro.store.codec import encode

        rel = "data/flows/20260728/part-0000.cws"
        root = tmp_path / "legacy"
        (root / rel).parent.mkdir(parents=True)
        (root / rel).write_bytes(encode(make_bundle((0, 50))))
        (root / "manifest.json").write_text(json.dumps({
            "version": 1,
            "entries": [{
                "namespace": "flows", "bucket": "20260728",
                "part": "part-0000", "kind": "bottomk",
                "assignments": ASSIGNMENTS, "path": rel,
            }],
        }))

        def tree():
            return {
                path.relative_to(root).as_posix():
                    path.read_bytes() if path.is_file() else None
                for path in root.rglob("*")
            }

        before = tree()
        with pytest.raises(
            UnsupportedFormatError,
            match=r"manifest\.json.*no runtime\.sqlite.*PR 6–16.*migrates",
        ):
            SummaryStore(root, create=create)
        assert tree() == before

    def test_no_stray_staging_files(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728", make_bundle((0, 50)))
        strays = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert strays == []

    def test_overwrite_is_a_new_publication(self, tmp_path):
        # An overwrite replaces row and bytes together under a fresh
        # publication number; an entry listed before it no longer loads
        # (so a reader re-plans instead of mixing old and new bytes).
        store = SummaryStore(tmp_path)
        first = store.write("flows", "20260728", make_bundle((0, 50)),
                            part="p")
        second = store.write("flows", "20260728", make_bundle((50, 80)),
                             part="p", overwrite=True)
        third_bundle = make_bundle((80, 90))
        third = store.write("flows", "20260728", third_bundle,
                            part="p", overwrite=True)
        assert first.seq < second.seq < third.seq
        for stale in (first, second):
            with pytest.raises(FileNotFoundError, match="no longer"):
                store.load(stale)
        assert store.load(third).equals(third_bundle)
        assert store.entries("flows") == [third]
        assert artifact_keys(tmp_path) == [("flows", "20260728", "p")]

    def test_publication_numbers_are_never_reused(self, tmp_path):
        store = SummaryStore(tmp_path)
        first = store.write("flows", "20260728", make_bundle((0, 50)),
                            part="p")
        store.remove("flows", "20260728", "p")
        again = store.write("flows", "20260728", make_bundle((50, 80)),
                            part="p")
        assert again.seq > first.seq
        with pytest.raises(FileNotFoundError):
            store.load(first)

    def test_root_holds_only_the_runtime_tier(self, tmp_path):
        # write, overwrite, remove and compact touch rows only: no data/
        # directory, no staging file, nothing but runtime.sqlite*
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T1201", make_bundle((0, 50)))
        store.write("flows", "20260728T1202", make_bundle((50, 90)),
                    part="p")
        store.write("flows", "20260728T1202", make_bundle((50, 100)),
                    part="p", overwrite=True)
        store.write("flows", "20260728T1203", make_bundle((100, 150)))
        store.remove("flows", "20260728T1203", "part-0000")
        store.compact("flows", to="hour")
        assert {
            path.name for path in tmp_path.iterdir()
        } <= {"runtime.sqlite", "runtime.sqlite-wal", "runtime.sqlite-shm"}
        assert artifact_keys(tmp_path) == [
            ("flows", "20260728T12", "rollup-0000")
        ]

    def test_concurrent_handles_do_not_lose_entries(self, tmp_path):
        # Two long-lived handles on one root: each write re-reads the
        # manifest under the mutation lock, so neither clobbers the other.
        writer_a = SummaryStore(tmp_path)
        writer_b = SummaryStore(tmp_path)
        entry_a = writer_a.write("flows", "20260728T1201",
                                 make_bundle((0, 50)))
        entry_b = writer_b.write("flows", "20260728T1201",
                                 make_bundle((50, 100), seed=1))
        assert entry_a.part != entry_b.part
        merged = SummaryStore(tmp_path, create=False)
        assert len(merged.entries("flows")) == 2

    def test_namespaces_and_ls(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("a", "20260728", make_bundle((0, 10)))
        store.write("b", "20260728", make_bundle((10, 20)))
        assert store.namespaces() == ["a", "b"]
        listing = store.ls()
        assert "NAMESPACE" in listing and "h1,h2" in listing
        assert "(no artifacts" in store.ls("missing")
        assert "(empty store" in SummaryStore(tmp_path / "fresh").ls()


class TestMergedServing:
    def test_summary_matches_in_memory_merge(self, tmp_path):
        store = SummaryStore(tmp_path)
        parts = [make_bundle((0, 300)), make_bundle((300, 600), seed=1)]
        store.write("flows", "20260728T1201", parts[0])
        store.write("flows", "20260728T1202", parts[1])
        expected = parts[0].merge(parts[1]).summary()
        assert store.summary("flows").equals(expected)

    def test_bucket_filter(self, tmp_path):
        store = SummaryStore(tmp_path)
        first = make_bundle((0, 300))
        store.write("flows", "20260728T1201", first)
        store.write("flows", "20260728T1202", make_bundle((300, 600), seed=1))
        only_first = store.summary("flows", buckets=["20260728T1201"])
        assert only_first.equals(first.summary())

    def test_empty_namespace_raises(self, tmp_path):
        store = SummaryStore(tmp_path)
        with pytest.raises(KeyError, match="no sketch bundles"):
            store.summary("ghost")

    def test_incompatible_bundles_refuse_to_merge(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T1201", make_bundle((0, 100)))
        store.write(
            "flows", "20260728T1202", make_bundle((100, 200), salt=SALT + 1)
        )
        with pytest.raises(ValueError, match="incompatible"):
            store.summary("flows")

    def test_overlapping_keys_refuse_to_merge(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T1201", make_bundle((0, 100)))
        store.write("flows", "20260728T1202", make_bundle((0, 100), seed=9))
        with pytest.raises(ValueError, match="key-disjoint"):
            store.summary("flows")


class TestCompaction:
    def fill(self, store: SummaryStore) -> list[SketchBundle]:
        buckets = [
            "20260728T1201", "20260728T1202", "20260728T1259",
            "20260728T1300", "20260729T0001",
        ]
        bundles = []
        for index, bucket in enumerate(buckets):
            bundle = make_bundle(
                (index * 1000, index * 1000 + 400), seed=index
            )
            store.write("flows", bucket, bundle)
            bundles.append(bundle)
        return bundles

    def test_rollup_to_hour_preserves_estimates(self, tmp_path):
        store = SummaryStore(tmp_path)
        bundles = self.fill(store)
        specs = [
            AggregationSpec("max", ("h1", "h2")),
            AggregationSpec("min", ("h1", "h2")),
            AggregationSpec("l1", ("h1", "h2")),
            AggregationSpec("single", ("h1",)),
        ]
        in_memory = QueryEngine(bundles[0].merge(*bundles[1:]).summary())
        raw = QueryEngine.from_store(store, "flows")
        written = store.compact("flows", to="hour")
        compacted = QueryEngine.from_store(store, "flows")
        for spec in specs:
            expected = in_memory.estimate(spec)
            assert raw.estimate(spec) == expected
            assert compacted.estimate(spec) == expected
        buckets = sorted(e.bucket for e in store.entries("flows"))
        assert buckets == ["20260728T12", "20260728T13", "20260729T00"]
        assert {e.part for e in written} == {"rollup-0000"}

    def test_rollup_to_day(self, tmp_path):
        store = SummaryStore(tmp_path)
        bundles = self.fill(store)
        store.compact("flows", to="hour")
        store.compact("flows", to="day")
        assert sorted(e.bucket for e in store.entries("flows")) == [
            "20260728", "20260729",
        ]
        expected = bundles[0].merge(*bundles[1:]).summary()
        assert store.summary("flows").equals(expected)

    def test_retired_parts_leave_no_bytes(self, tmp_path):
        store = SummaryStore(tmp_path)
        self.fill(store)
        store.compact("flows", to="day")
        assert artifact_keys(tmp_path) == sorted(
            (e.namespace, e.bucket, e.part) for e in store.entries()
        )

    def test_compaction_returns_freed_pages(self, tmp_path):
        # auto_vacuum=INCREMENTAL + incremental_vacuum after the commit:
        # the retired parts' pages leave the file instead of idling on
        # the freelist
        store = SummaryStore(tmp_path)
        self.fill(store)
        store.compact("flows", to="day")
        conn = store.runtime._conn
        assert conn.execute("PRAGMA auto_vacuum").fetchone()[0] == 2
        assert conn.execute("PRAGMA freelist_count").fetchone()[0] == 0

    def test_single_entry_at_target_untouched(self, tmp_path):
        store = SummaryStore(tmp_path)
        entry = store.write("flows", "20260728T12", make_bundle((0, 100)))
        assert store.compact("flows", to="hour") == []
        assert store.entries("flows") == [entry]

    def test_multiple_parts_in_one_bucket_collapse(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T12", make_bundle((0, 100)))
        store.write("flows", "20260728T12", make_bundle((100, 200), seed=1))
        written = store.compact("flows", to="hour")
        assert len(written) == 1
        assert len(store.entries("flows")) == 1

    def test_checkpoints_not_compacted(self, tmp_path):
        engine = ShardedSummarizer(
            k=4, assignments=["h1"], hasher=KeyHasher(SALT)
        )
        engine.ingest("h1", np.arange(10), np.ones(10))
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728T1201", engine.checkpoint_state())
        store.write("flows", "20260728T1201", make_bundle((0, 50)))
        store.write("flows", "20260728T1202", make_bundle((50, 90), seed=1))
        store.compact("flows", to="hour")
        kinds = sorted(e.kind for e in store.entries("flows"))
        assert kinds == ["bottomk", "checkpoint"]

    def test_unknown_granularity(self, tmp_path):
        with pytest.raises(ValueError, match="granularity"):
            SummaryStore(tmp_path).compact("flows", to="fortnight")

    def test_coarser_entries_ignored(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728", make_bundle((0, 100)))
        assert store.compact("flows", to="hour") == []


class TestFromStore:
    def test_from_store_with_dataset_binding(self, tmp_path):
        # Stream summaries carry raw key identifiers; from_store must keep
        # serving key_in predicates without any dataset attached.
        from repro.core.predicates import key_in

        sampler_keys = [f"key{i}" for i in range(60)]
        sketches = {}
        for name, scale in [("h1", 1.0), ("h2", 2.0)]:
            sampler = BottomKStreamSampler(20, IppsRanks(), KeyHasher(SALT))
            sampler.process_stream(
                (key, (i % 7 + 1) * scale)
                for i, key in enumerate(sampler_keys)
            )
            sketches[name] = sampler.sketch()
        bundle = SketchBundle(
            "bottomk", sketches, IppsRanks(), hasher_salt=SALT
        )
        store = SummaryStore(tmp_path)
        store.write("flows", "20260728", bundle)
        engine = QueryEngine.from_store(store, "flows")
        spec = AggregationSpec("max", ("h1", "h2"))
        subset = engine.estimate(
            spec, predicate=key_in(sampler_keys[:30])
        )
        total = engine.estimate(spec)
        assert 0.0 <= subset <= total


class TestBucketBounds:
    def test_spans(self):
        from datetime import timedelta

        from repro.store import bucket_bounds

        for bucket, span in [
            ("20260728T1201", timedelta(minutes=1)),
            ("20260728T12", timedelta(hours=1)),
            ("20260728", timedelta(days=1)),
        ]:
            lo, hi = bucket_bounds(bucket)
            assert hi - lo == span
            assert lo.tzinfo == timezone.utc

    def test_minute_nested_in_its_hour_and_day(self):
        from repro.store import bucket_bounds

        minute = bucket_bounds("20260728T1201")
        hour = bucket_bounds("20260728T12")
        day = bucket_bounds("20260728")
        assert hour[0] <= minute[0] and minute[1] <= hour[1]
        assert day[0] <= hour[0] and hour[1] <= day[1]

    def test_invalid_bucket_rejected(self):
        from repro.store import bucket_bounds

        with pytest.raises(ValueError, match="invalid bucket id"):
            bucket_bounds("not-a-bucket")


class TestVersionWatch:
    def test_version_moves_on_every_mutation(self, tmp_path):
        store = SummaryStore(tmp_path)
        seen = {store.version()}
        entry = store.write("flows", "20260728T1201", make_bundle((0, 50)))
        seen.add(store.version())
        store.write("flows", "20260728T1202", make_bundle((50, 100), seed=1))
        seen.add(store.version())
        store.compact("flows", to="hour")
        seen.add(store.version())
        assert len(seen) == 4  # all distinct: each mutation is observable

    def test_version_is_per_namespace(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("web", "20260728T1201", make_bundle((0, 50)))
        before = store.version("web")
        store.write("api", "20260728T1201", make_bundle((50, 100), seed=1))
        assert store.version("web") == before  # other namespaces invisible
        assert store.version("api") != before

    def test_version_stable_across_reopen(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("web", "20260728T1201", make_bundle((0, 50)))
        assert SummaryStore(tmp_path).version("web") == store.version("web")


class TestRemove:
    def test_remove_drops_entry_and_bytes(self, tmp_path):
        store = SummaryStore(tmp_path)
        entry = store.write("flows", "20260728T1201", make_bundle((0, 50)))
        assert artifact_keys(tmp_path) == [
            ("flows", "20260728T1201", entry.part)
        ]
        removed = store.remove("flows", "20260728T1201", entry.part)
        assert removed == entry
        assert store.entries("flows") == []
        assert artifact_keys(tmp_path) == []
        with pytest.raises(FileNotFoundError, match="no longer"):
            store.load(entry)
        assert SummaryStore(tmp_path).entries("flows") == []

    def test_remove_missing(self, tmp_path):
        store = SummaryStore(tmp_path)
        with pytest.raises(KeyError, match="no artifact"):
            store.remove("flows", "20260728T1201", "part-0000")
        assert store.remove(
            "flows", "20260728T1201", "part-0000", missing_ok=True
        ) is None


class TestTransaction:
    def test_mutations_compose_into_one_commit(self, tmp_path):
        store = SummaryStore(tmp_path)
        kept = store.write("flows", "20260728T1201", make_bundle((0, 50)))
        other = SummaryStore(tmp_path)  # a second handle sees commits only
        with store.transaction():
            store.write("flows", "20260728T1202", make_bundle((50, 90)))
            store.remove("flows", "20260728T1201", kept.part)
            inside = [e.bucket for e in store.entries("flows")]
        assert inside == ["20260728T1201"]  # the cache is re-read at commit
        assert [e.bucket for e in store.entries("flows")] == ["20260728T1202"]
        other.refresh()
        assert other.entries("flows") == store.entries("flows")
        assert store.version("flows") == "flows.r3"

    def test_rollback_restores_everything(self, tmp_path):
        store = SummaryStore(tmp_path)
        kept = store.write("flows", "20260728T1201", make_bundle((0, 50)))
        before = (store.entries(), store.version(), artifact_keys(tmp_path))
        with pytest.raises(RuntimeError, match="mid-transaction"):
            with store.transaction():
                store.write("flows", "20260728T1202", make_bundle((50, 90)))
                store.remove("flows", "20260728T1201", kept.part)
                raise RuntimeError("mid-transaction failure")
        assert (
            store.entries(), store.version(), artifact_keys(tmp_path)
        ) == before
        assert store.load(kept).equals(make_bundle((0, 50)))
        reopened = SummaryStore(tmp_path)
        assert reopened.entries() == before[0]


class TestLsJson:
    def test_shared_machine_readable_format(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("web", "20260728T1201", make_bundle((0, 50)))
        store.write("web", "20260728T1202", make_bundle((50, 100), seed=1))
        store.write("api", "20260728", make_bundle((100, 150), seed=2))
        listing = store.ls_json()
        assert listing["root"] == str(tmp_path)
        assert listing["version"] == store.version()
        by_name = {row["namespace"]: row for row in listing["namespaces"]}
        assert set(by_name) == {"web", "api"}
        web = by_name["web"]
        assert web["version"] == store.version("web")
        assert web["buckets"] == ["20260728T1201", "20260728T1202"]
        assert web["nbytes"] == sum(
            entry.nbytes for entry in store.entries("web")
        )
        assert [row["granularity"] for row in web["entries"]] == [
            "minute", "minute",
        ]
        # round-trips through JSON (the CLI prints exactly this)
        assert json.loads(json.dumps(listing)) == listing

    def test_namespace_filter(self, tmp_path):
        store = SummaryStore(tmp_path)
        store.write("web", "20260728T1201", make_bundle((0, 50)))
        store.write("api", "20260728T1201", make_bundle((50, 100), seed=1))
        listing = store.ls_json("api")
        assert [row["namespace"] for row in listing["namespaces"]] == ["api"]


class TestBundleEntries:
    def fill(self, store):
        store.write("web", "20260728T1259", make_bundle((0, 50)))
        store.write("web", "20260728T1301", make_bundle((50, 100), seed=1))
        store.write("web", "20260729", make_bundle((100, 150), seed=2))

    def test_window_selection_spans_granularities(self, tmp_path):
        store = SummaryStore(tmp_path)
        self.fill(store)
        buckets = lambda rows: [entry.bucket for entry in rows]  # noqa: E731
        assert buckets(store.bundle_entries("web")) == [
            "20260728T1259", "20260728T1301", "20260729",
        ]
        assert buckets(
            store.bundle_entries("web", since="20260728T13")
        ) == ["20260728T1301", "20260729"]
        assert buckets(
            store.bundle_entries("web", until="20260728T1259")
        ) == ["20260728T1259"]
        assert buckets(
            store.bundle_entries(
                "web", since="20260728T1301", until="20260728T1301"
            )
        ) == ["20260728T1301"]
        # a day window catches everything inside the day
        assert buckets(
            store.bundle_entries("web", since="20260728", until="20260728")
        ) == ["20260728T1259", "20260728T1301"]

    def test_selection_stable_across_compaction(self, tmp_path):
        store = SummaryStore(tmp_path)
        self.fill(store)
        before = {
            entry.bucket
            for entry in store.bundle_entries("web", until="20260728T12")
        }
        store.compact("web", to="hour")
        after = {
            entry.bucket
            for entry in store.bundle_entries("web", until="20260728T12")
        }
        assert before == {"20260728T1259"} and after == {"20260728T12"}

    def test_buckets_and_window_are_exclusive(self, tmp_path):
        store = SummaryStore(tmp_path)
        with pytest.raises(ValueError, match="either buckets or"):
            store.bundle_entries(
                "web", buckets=["20260728"], since="20260728"
            )

    def test_checkpoints_never_selected(self, tmp_path):
        store = SummaryStore(tmp_path)
        engine = ShardedSummarizer(
            k=4, assignments=ASSIGNMENTS, hasher=KeyHasher(SALT)
        )
        engine.ingest("h1", np.arange(5), np.ones(5))
        store.write("web", "20260728T1201", engine.checkpoint_state())
        assert store.bundle_entries("web") == []
