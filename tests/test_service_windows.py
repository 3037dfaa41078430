"""LiveWindowManager + QueryPlanner behavior (fake-clock unit tests).

The service's bit-exactness property is pinned by hypothesis in
test_service_exactness.py; this file checks the mechanics: rotation on
bucket boundaries, checkpoint/resume consumption, version tokens, the
planner's merged live+stored view, and its version-keyed result cache.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service.config import NamespaceConfig, ServiceConfig
from repro.service.planner import QueryPlanner
from repro.service.windows import CHECKPOINT_PART, LiveWindowManager
from repro.store import SummaryStore

T0 = datetime(2026, 7, 28, 12, 0, 30, tzinfo=timezone.utc).timestamp()
NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=9)


class FakeClock:
    def __init__(self, now: float = T0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_manager(root, clock, configs=(NS,)):
    return LiveWindowManager(SummaryStore(root), configs, clock=clock)


def batch(lo: int, n: int = 20, scale: float = 1.0):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    w1 = (np.linspace(1.0, 3.0, n) * scale).tolist()
    return keys, {"h1": np.asarray(w1), "h2": np.asarray(w1) * 2.0}


def offline_engine(event_batches, config=NS) -> QueryEngine:
    summarizer = config.make_summarizer()
    for keys, weights in event_batches:
        summarizer.ingest_multi(keys, weights)
    return QueryEngine(summarizer.summary())


class TestNamespaceConfig:
    def test_round_trip(self):
        assert NamespaceConfig.from_json(NS.to_json()) == NS
        assert sorted(NS.to_json()) == [
            "assignments", "family", "k", "name", "salt",
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one assignment"):
            NamespaceConfig("web", ())
        with pytest.raises(ValueError, match="k must be"):
            NamespaceConfig("web", ("h1",), k=0)
        with pytest.raises(ValueError, match="non-empty"):
            NamespaceConfig("", ("h1",))

    @pytest.mark.parametrize(
        "key", ["Salt", "familly", "K", "n_shards", "partition_salt"]
    )
    def test_from_json_rejects_unknown_keys(self, key):
        """A typo'd coordination field must not fall back to its default
        (the namespace would quietly stop merging with its peers); the
        keys of the removed in-process sharding are refused the same way,
        with a message that says they can simply be deleted."""
        with pytest.raises(ValueError, match=f"{key}.*sharding was removed"):
            NamespaceConfig.from_json({**NS.to_json(), key: 3})

    def test_make_summarizer_carries_coordination(self):
        summarizer = NS.make_summarizer()
        assert summarizer.k == NS.k
        assert summarizer.hasher.salt == NS.salt
        assert summarizer.assignments == list(NS.assignments)


class TestServiceConfig:
    def make(self, **overrides):
        base = dict(store_root="/tmp/x", namespaces=(NS,))
        base.update(overrides)
        return ServiceConfig(**base)

    def test_json_round_trip(self, tmp_path):
        config = self.make(port=9999, compact_to="day")
        path = tmp_path / "service.json"
        config.dump(path)
        assert ServiceConfig.from_file(path) == config

    @pytest.mark.parametrize("removed", ["executor", "result_cache_size"])
    def test_a_removed_key_is_an_unknown_key(self, removed):
        """A config file written for an earlier version fails loudly."""
        payload = {**self.make().to_json(), removed: None}
        with pytest.raises(
            ValueError, match=f"unknown service config keys: {removed}"
        ):
            ServiceConfig.from_json(payload)

    def test_namespaces_from_plain_dicts(self):
        config = ServiceConfig(
            store_root="/tmp/x", namespaces=[NS.to_json()]
        )
        assert config.namespaces == (NS,)

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate namespace"):
            self.make(namespaces=(NS, NS))
        with pytest.raises(ValueError, match="at least one namespace"):
            self.make(namespaces=())
        with pytest.raises(ValueError, match="granularity"):
            self.make(granularity="fortnight")
        with pytest.raises(ValueError, match="compaction granularity"):
            self.make(compact_to="fortnight")
        with pytest.raises(ValueError, match="unknown service config keys"):
            ServiceConfig.from_json(
                {"store_root": "x", "namespaces": [NS.to_json()],
                 "portt": 80}
            )
        with pytest.raises(ValueError, match="needs 'store_root'"):
            ServiceConfig.from_json({"namespaces": [NS.to_json()]})

    def test_namespace_lookup(self):
        config = self.make()
        assert config.namespace("web") == NS
        with pytest.raises(KeyError, match="unknown namespace"):
            config.namespace("ghost")


class TestRotation:
    def test_window_follows_the_clock(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        assert manager.live_info("web")["bucket"] == "20260728T1200"
        keys, weights = batch(0)
        manager.ingest("web", keys, weights)
        assert manager.live_info("web")["buffered_events"] == 40

        clock.advance(60.0)
        written = manager.rotate()
        assert [entry.bucket for entry in written] == ["20260728T1200"]
        info = manager.live_info("web")
        assert info["bucket"] == "20260728T1201"
        assert info["buffered_events"] == 0

    def test_ingest_rotates_first(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        clock.advance(60.0)
        # no explicit rotate(): the batch's arrival time drives it
        result = manager.ingest("web", *batch(100))
        assert result["bucket"] == "20260728T1201"
        assert [
            entry.bucket for entry in manager.store.entries("web")
        ] == ["20260728T1200"]

    def test_empty_window_never_publishes(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        clock.advance(60.0)
        assert manager.rotate() == []
        assert manager.store.entries("web") == []
        assert manager.rotate(force=True) == []  # nothing buffered either

    def test_mid_bucket_flush_publishes_without_reset(self, tmp_path):
        from repro.service.windows import LIVE_PART

        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        written = manager.rotate(force=True)
        assert [(e.bucket, e.part) for e in written] == [
            ("20260728T1200", LIVE_PART)
        ]
        # the flush also wrote a checkpoint (before the bundle), so a
        # crash at any instant resumes state covering the flush artifact
        assert [
            e.part for e in manager.store.entries("web", kind="checkpoint")
        ] == [CHECKPOINT_PART]
        info = manager.live_info("web")
        assert info["bucket"] == "20260728T1200"
        assert info["buffered_events"] == 40  # flush does not reset

    def test_flush_then_repeated_keys_stays_exact(self, tmp_path):
        # Regression: a mid-bucket flush followed by more events for the
        # SAME keys must not brick the namespace (the flush artifact is
        # overwritten, never joined by a second overlapping part).
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        planner = QueryPlanner(manager)
        keys, weights = batch(0)
        manager.ingest("web", keys, weights)
        manager.rotate(force=True)
        manager.ingest("web", keys, weights)  # same keys, same bucket
        offline = offline_engine([(keys, weights), (keys, weights)])
        spec = AggregationSpec("max", ("h1", "h2"))
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )
        # the boundary rotation replaces the flush with the full bucket
        clock.advance(60.0)
        manager.rotate()
        assert len(manager.store.bundle_entries("web")) == 1
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )

    def test_flush_survives_a_crash(self, tmp_path):
        # Flush is crash durability: a manager that dies WITHOUT a clean
        # shutdown resumes the flush's own checkpoint and keeps serving
        # the flushed events — including after post-restart ingestion
        # masks the flush artifact and rotation overwrites it.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.rotate(force=True)
        del manager  # crash: no checkpoint()
        revived = make_manager(tmp_path, clock)
        assert revived.live_info("web")["buffered_events"] == 40
        spec = AggregationSpec("max", ("h1", "h2"))
        offline = offline_engine([batch(0)])
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )
        # the review repro: one post-restart event batch must ADD to the
        # flushed data, not replace it
        revived.ingest("web", *batch(100))
        offline = offline_engine([batch(0), batch(100)])
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )
        clock.advance(60.0)
        revived.rotate()
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )

    def test_orphan_flush_without_checkpoint_is_rescued(self, tmp_path):
        # A store whose flush artifact has no checkpoint beside it (a
        # pre-invariant store, or an operator removed the checkpoint):
        # startup must not open a fresh window over the flushed bundle —
        # it gets re-homed to a recovered part the planner always serves
        # and rotation never overwrites.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.rotate(force=True)
        manager.store.remove("web", "20260728T1200", CHECKPOINT_PART)
        del manager  # crash

        revived = make_manager(tmp_path, clock)
        assert revived.live_info("web")["buffered_events"] == 0
        parts = [
            (e.part, e.kind) for e in revived.store.entries("web")
        ]
        assert parts == [("recovered-0000", "bottomk")]
        revived.ingest("web", *batch(100))
        spec = AggregationSpec("max", ("h1", "h2"))
        offline = offline_engine([batch(0), batch(100)])
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )
        # boundary rotation publishes only the new window's events and
        # leaves the recovered bundle alone
        clock.advance(60.0)
        revived.rotate()
        assert {
            e.part for e in revived.store.bundle_entries("web")
        } == {"recovered-0000", "live"}
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )

    def test_flush_checkpoint_never_staler_than_bundle(self, tmp_path):
        # Review repro: clean shutdown (checkpoint E1) -> restart resumes
        # (checkpoint stays on disk) -> ingest E2 -> flush -> crash.  The
        # flush must have refreshed the checkpoint, or the restart would
        # resume E1 alone and overwrite the E1+E2 flush artifact with it.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.checkpoint()  # clean shutdown
        del manager

        resumed = make_manager(tmp_path, clock)
        resumed.ingest("web", *batch(100))
        resumed.rotate(force=True)  # flush E1+E2
        del resumed  # crash: no checkpoint()

        revived = make_manager(tmp_path, clock)
        assert revived.live_info("web")["buffered_events"] == 80
        revived.ingest("web", *batch(200))
        clock.advance(60.0)
        revived.rotate()
        spec = AggregationSpec("max", ("h1", "h2"))
        offline = offline_engine([batch(0), batch(100), batch(200)])
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )

    def test_boundary_rotation_crash_before_checkpoint_retire(
        self, tmp_path, monkeypatch
    ):
        # A boundary rotation is one transaction: a failure after the
        # final bundle write but before the checkpoint retire rolls the
        # bundle back too.  The restart finds the flush-time checkpoint
        # and the flush-time bundle it covers — never a newer bundle that
        # the resumed prefix would mask and overwrite.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.rotate(force=True)  # checkpoint + bundle hold E1
        manager.ingest("web", *batch(100))  # E2, same bucket, in memory
        clock.advance(60.0)

        def dying_remove(*args, **kwargs):
            raise RuntimeError("crash before the checkpoint retire")

        monkeypatch.setattr(manager.store, "remove", dying_remove)
        with pytest.raises(RuntimeError, match="checkpoint retire"):
            manager.rotate()  # final bundle written, then "crash"
        # nothing committed, so the manager did not move on either
        assert manager.live_info("web")["bucket"] == "20260728T1200"
        assert manager.live_info("web")["buffered_events"] == 80
        del manager

        revived = make_manager(tmp_path, clock)
        assert revived.live_info("web")["buffered_events"] == 40  # E1
        assert [
            (e.part, e.kind) for e in revived.store.entries("web")
        ] == [(CHECKPOINT_PART, "checkpoint"), ("live", "bottomk")]
        clock.advance(60.0)
        revived.rotate()
        spec = AggregationSpec("max", ("h1", "h2"))
        offline = offline_engine([batch(0)])
        assert (
            QueryPlanner(revived).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )

    def test_unknown_namespace(self, tmp_path):
        manager = make_manager(tmp_path, FakeClock())
        with pytest.raises(KeyError, match="unknown namespace"):
            manager.ingest("ghost", *batch(0))
        with pytest.raises(KeyError, match="unknown namespace"):
            manager.version("ghost")

    def test_version_moves_on_ingest_and_rotation(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        seen = {manager.version("web")}
        manager.ingest("web", *batch(0))
        seen.add(manager.version("web"))
        clock.advance(60.0)
        manager.rotate()
        seen.add(manager.version("web"))
        assert len(seen) == 3


class TestCheckpointResume:
    def test_clean_shutdown_round_trip(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        clock.advance(60.0)
        manager.rotate()
        manager.ingest("web", *batch(100))
        written = manager.checkpoint()
        assert [entry.part for entry in written] == [CHECKPOINT_PART]

        resumed = make_manager(tmp_path, clock)
        info = resumed.live_info("web")
        assert info["bucket"] == "20260728T1201"
        assert info["buffered_events"] == 40
        # the checkpoint stays durable until a rotation supersedes it
        # (a crash right after restart must not lose persisted events)
        assert len(resumed.store.entries("web", kind="checkpoint")) == 1
        clock.advance(60.0)
        resumed.rotate()
        assert resumed.store.entries("web", kind="checkpoint") == []
        # and the restored stream continues bit-identically
        spec = AggregationSpec("max", ("h1", "h2"))
        offline = offline_engine([batch(0), batch(100)])
        planner = QueryPlanner(resumed)
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )

    def test_empty_windows_are_not_checkpointed(self, tmp_path):
        manager = make_manager(tmp_path, FakeClock())
        assert manager.checkpoint() == []

    def test_resume_rejects_changed_coordination(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.checkpoint()
        changed = NamespaceConfig("web", ("h1", "h2"), k=8, salt=9)
        with pytest.raises(ValueError, match="different configuration"):
            make_manager(tmp_path, clock, configs=(changed,))

    def test_resume_rejects_a_changed_rank_family(self, tmp_path):
        # Resuming would keep sampling this window under ipps while the
        # next rotation opens an exp one: two bundles that cannot merge.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.checkpoint()
        changed = NamespaceConfig(
            "web", ("h1", "h2"), k=NS.k, salt=NS.salt, family="exp"
        )
        with pytest.raises(ValueError, match="family=ipps"):
            make_manager(tmp_path, clock, configs=(changed,))
        same = NamespaceConfig(
            "web", ("h1", "h2"), k=NS.k, salt=NS.salt, family="IPPS"
        )
        assert make_manager(tmp_path, clock, configs=(same,)).live_info(
            "web"
        )["buffered_events"] > 0

    def test_rotation_supersedes_a_stale_checkpoint(self, tmp_path):
        # checkpoint() on a live service, then a rotation: the published
        # bundle must retire the checkpoint, or the next resume would
        # double-publish the same events.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        manager.ingest("web", *batch(0))
        manager.checkpoint()
        clock.advance(60.0)
        manager.rotate()
        assert manager.store.entries("web", kind="checkpoint") == []
        resumed = make_manager(tmp_path, clock)
        assert resumed.live_info("web")["buffered_events"] == 0
        offline = offline_engine([batch(0)])
        spec = AggregationSpec("max", ("h1", "h2"))
        planner = QueryPlanner(resumed)
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )


class TestPlanner:
    def test_merged_live_plus_stored_is_exact(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        planner = QueryPlanner(manager)
        manager.ingest("web", *batch(0))
        clock.advance(60.0)
        manager.rotate()
        manager.ingest("web", *batch(100))

        offline = offline_engine([batch(0), batch(100)])
        for function in ("max", "min"):
            spec = AggregationSpec(function, ("h1", "h2"))
            got = planner.estimate("web", function, ("h1", "h2"))
            assert got["estimate"] == offline.estimate(spec)
            assert got["sources"] == {
                "stored_entries": 1,
                "live_events": 40,
                "union_keys": got["sources"]["union_keys"],
            }

    def test_result_cache_hit_and_invalidation(self, tmp_path):
        manager = make_manager(tmp_path, FakeClock())
        planner = QueryPlanner(manager)
        manager.ingest("web", *batch(0))
        first = planner.estimate("web", "max", ("h1", "h2"))
        again = planner.estimate("web", "max", ("h1", "h2"))
        assert not first["cached"] and again["cached"]
        assert again["estimate"] == first["estimate"]

        manager.ingest("web", *batch(100))  # version moves -> cache miss
        after = planner.estimate("web", "max", ("h1", "h2"))
        assert not after["cached"]
        assert after["version"] != first["version"]
        assert planner.stats["hits"] == 1 and planner.stats["misses"] == 2

    def test_compaction_changes_version_not_answers(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        planner = QueryPlanner(manager)
        for lo in (0, 100):
            manager.ingest("web", *batch(lo))
            clock.advance(60.0)
            manager.rotate()
        before = planner.estimate("web", "max", ("h1", "h2"))
        manager.compact(to="hour")
        after = planner.estimate("web", "max", ("h1", "h2"))
        assert not after["cached"]  # manifest moved, cache invalidated
        assert after["estimate"] == before["estimate"]  # but exactly equal

    def test_compaction_skips_the_active_group(self, tmp_path):
        # The coarse bucket a non-empty window still feeds (it holds a
        # flush artifact that will be overwritten) must not roll up; it
        # compacts on the next pass, once the window has moved on.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        planner = QueryPlanner(manager)
        manager.ingest("web", *batch(0))
        clock.advance(60.0)
        manager.ingest("web", *batch(100))
        manager.rotate(force=True)  # flush the active minute too
        offline = offline_engine([batch(0), batch(100)])
        spec = AggregationSpec("max", ("h1", "h2"))
        assert manager.compact(to="hour") == []  # active hour: skipped
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )
        clock.advance(3600.0)
        manager.rotate()
        written = manager.compact(to="hour")  # window moved on: rolls up
        assert [entry.bucket for entry in written] == ["20260728T12"]
        assert (
            planner.estimate("web", "max", ("h1", "h2"))["estimate"]
            == offline.estimate(spec)
        )

    def test_offline_compaction_skips_checkpointed_buckets(self, tmp_path):
        # Regression: with the daemon down, the store holds both a flush
        # bundle and a checkpoint for the same bucket.  An operator's
        # `repro-store compact` must not fold that bundle into a rollup —
        # the resumed window would re-publish the same keys and poison
        # the store with an unmergeable duplicate.
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        # hour 12: complete (window moved on), safe to roll up
        manager.ingest("web", *batch(0))
        clock.advance(3600.0)
        # hour 13: flushed AND checkpointed (clean shutdown mid-bucket)
        manager.ingest("web", *batch(100))
        manager.rotate(force=True)
        manager.checkpoint()
        del manager  # daemon down

        store = SummaryStore(tmp_path, create=False)
        written = store.compact("web", to="hour")  # plain offline CLI path
        assert [entry.bucket for entry in written] == ["20260728T12"]
        buckets = {entry.bucket for entry in store.bundle_entries("web")}
        assert buckets == {"20260728T12", "20260728T1300"}  # 13: untouched

        resumed = make_manager(tmp_path, clock)
        offline = offline_engine([batch(0), batch(100)])
        spec = AggregationSpec("max", ("h1", "h2"))
        assert (
            QueryPlanner(resumed).estimate("web", "max", ("h1", "h2"))[
                "estimate"
            ]
            == offline.estimate(spec)
        )
        # once the checkpoint is consumed by a rotation, hour 13 rolls up
        clock.advance(3600.0)
        resumed.rotate()
        fresh = SummaryStore(tmp_path, create=False)
        assert [entry.bucket for entry in fresh.compact("web", to="hour")] == [
            "20260728T13"
        ]

    def test_time_window_selection(self, tmp_path):
        clock = FakeClock()
        manager = make_manager(tmp_path, clock)
        planner = QueryPlanner(manager)
        manager.ingest("web", *batch(0))
        clock.advance(60.0)
        manager.rotate()
        manager.ingest("web", *batch(100))

        spec = AggregationSpec("max", ("h1", "h2"))
        stored_only = planner.estimate(
            "web", "max", ("h1", "h2"), until="20260728T1200"
        )
        assert stored_only["estimate"] == offline_engine(
            [batch(0)]
        ).estimate(spec)
        live_only = planner.estimate(
            "web", "max", ("h1", "h2"), since="20260728T1201"
        )
        assert live_only["estimate"] == offline_engine(
            [batch(100)]
        ).estimate(spec)

    def test_key_subpopulation(self, tmp_path):
        manager = make_manager(tmp_path, FakeClock())
        planner = QueryPlanner(manager)
        keys, weights = batch(0, n=40)
        manager.ingest("web", keys, weights)
        subset = keys[:10]
        offline = offline_engine([(keys, weights)])
        from repro.core.predicates import key_in

        spec = AggregationSpec("max", ("h1", "h2"))
        got = planner.estimate("web", "max", ("h1", "h2"), keys=subset)
        assert got["estimate"] == offline.estimate(
            spec, predicate=key_in(subset)
        )

    def test_jaccard(self, tmp_path):
        from repro.engine.queries import jaccard_from_summary

        manager = make_manager(tmp_path, FakeClock())
        planner = QueryPlanner(manager)
        keys, weights = batch(0, n=40)
        manager.ingest("web", keys, weights)
        offline = offline_engine([(keys, weights)])
        got = planner.jaccard("web", ("h1", "h2"))
        assert got["estimate"] == jaccard_from_summary(
            offline.summary, ("h1", "h2"), "l"
        )
        assert planner.jaccard("web", ("h1", "h2"))["cached"]

    def test_no_data_raises_lookup(self, tmp_path):
        planner = QueryPlanner(make_manager(tmp_path, FakeClock()))
        with pytest.raises(LookupError, match="no data for namespace"):
            planner.estimate("web", "max", ("h1", "h2"))

    def test_unknown_namespace_raises_keyerror(self, tmp_path):
        planner = QueryPlanner(make_manager(tmp_path, FakeClock()))
        with pytest.raises(KeyError, match="unknown namespace"):
            planner.estimate("ghost", "max", ("h1", "h2"))

    def test_invalid_function_and_estimator(self, tmp_path):
        planner = QueryPlanner(make_manager(tmp_path, FakeClock()))
        with pytest.raises(ValueError, match="unknown function"):
            planner.estimate("web", "median", ("h1",))
        with pytest.raises(ValueError, match="unknown estimator"):
            planner.estimate("web", "max", ("h1",), estimator="magic")
