"""Temporal query surface: sliding windows, decayed weights, exactness.

The acceptance property of PR 7's tentpole: sliding-window and
time-decayed estimates served by :class:`QueryPlanner` are
**bit-identical** to an offline :class:`~repro.engine.queries.QueryEngine`
built over the equivalently selected and decayed summaries — across
rotation / flush / restart / compaction interleavings driven by
hypothesis.  Also pins the partial-merge frontier reuse, the
persistent-cache version-token discipline (the PR's probe-race audit),
and the inclusive ``since``/``until`` intersection semantics of
``_live_in_window`` and ``SummaryStore.bundle_entries`` across mixed
granularities.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.temporal import decay_factor, resolve_windows
from repro.service.windows import LIVE_PART, LiveWindowManager
from repro.store import SummaryStore
from repro.store.store import bucket_bounds, bucket_for

T0 = datetime(2026, 7, 28, 12, 0, 0, tzinfo=timezone.utc).timestamp()
NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=21)

_weights = st.floats(
    min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False
)


class Clock:
    def __init__(self) -> None:
        self.now = T0

    def __call__(self) -> float:
        return self.now


def build_lifecycle(root, plan, clock):
    """Replay a lifecycle plan; returns the final manager."""
    manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
    for op in plan:
        if op[0] == "ingest":
            _tag, keys, w1, w2 = op
            manager.ingest("web", keys, {
                "h1": np.asarray(w1, dtype=float),
                "h2": np.asarray(w2, dtype=float),
            })
        elif op[0] == "advance":
            clock.now += 60.0
        elif op[0] == "rotate":
            manager.rotate()
        elif op[0] == "flush":
            manager.rotate(force=True)
        elif op[0] == "restart":
            manager.checkpoint()
            manager = LiveWindowManager(
                SummaryStore(root, create=False), (NS,), clock=clock
            )
        elif op[0] == "compact":
            manager.compact(to=op[1])
    return manager


@st.composite
def lifecycle_plans(draw):
    """Ingests across up to 4 minute buckets with rotations, restarts,
    flushes, and compactions interleaved (keys bucket-disjoint)."""
    ops = []
    n_segments = draw(st.integers(2, 4))
    for segment in range(n_segments):
        n = draw(st.integers(1, 8))
        ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        keys = [segment * 100_000 + key_id for key_id in ids]
        w1 = draw(st.lists(_weights, min_size=n, max_size=n))
        w2 = draw(st.lists(_weights, min_size=n, max_size=n))
        ops.append(("ingest", keys, w1, w2))
        if draw(st.booleans()):
            ops.append(("flush",))
        if draw(st.booleans()):
            ops.append(("restart",))
        if segment < n_segments - 1:
            ops.append(("advance",))
            if draw(st.booleans()):
                ops.append(("rotate",))
            if draw(st.booleans()):
                ops.append(("compact", draw(st.sampled_from(["hour"]))))
    return ops


def offline_span_engine(manager, span_lo, span_hi, decay_s, anchor):
    """Independent reference: select + scale + merge straight off the store.

    Re-selects the namespace's bundle artifacts (masking the live
    window's own flush artifact), intersects half-open bucket bounds
    with ``[span_lo, span_hi)``, applies the per-bucket decay factor,
    and merges — the offline construction the planner's served answers
    must match bit for bit.
    """
    window = manager._window("web")
    bundles, scales = [], []
    for entry in manager.store.bundle_entries("web"):
        if window.events and (
            entry.bucket == window.bucket and entry.part == LIVE_PART
        ):
            continue
        lo, hi = bucket_bounds(entry.bucket)
        if hi <= span_lo or lo >= span_hi:
            continue
        bundles.append(manager.store.load(entry))
        scales.append(
            1.0 if decay_s is None else decay_factor(lo, anchor, decay_s)
        )
    live = manager.live_view("web")[2]
    if live is not None:
        lo, hi = bucket_bounds(window.bucket)
        if not (hi <= span_lo or lo >= span_hi):
            bundles.append(live)
            scales.append(
                1.0 if decay_s is None
                else decay_factor(lo, anchor, decay_s)
            )
    if not bundles:
        return None
    return QueryEngine.from_bundles(bundles, scales=scales)


def data_span(manager):
    window = manager._window("web")
    spans = [
        bucket_bounds(entry.bucket)
        for entry in manager.store.bundle_entries("web")
    ]
    if window.events:
        spans.append(bucket_bounds(window.bucket))
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


class TestWindowSeriesExactness:
    @settings(deadline=None, max_examples=30)
    @given(plan=lifecycle_plans(), decayed=st.booleans())
    def test_rows_match_offline_engines(
        self, tmp_path_factory, plan, decayed
    ):
        clock = Clock()
        manager = build_lifecycle(
            tmp_path_factory.mktemp("svc"), plan, clock
        )
        planner = QueryPlanner(manager)
        spec = AggregationSpec("max", ("h1", "h2"))
        result = planner.window_series(
            "web", "max", ("h1", "h2"), window="2m", step="1m",
            decay="90s" if decayed else None,
        )
        lo, hi = data_span(manager)
        expected_windows = resolve_windows(lo, hi, 120.0, 60.0)
        assert len(result["windows"]) == len(expected_windows)
        for row, (w_lo, w_hi) in zip(result["windows"], expected_windows):
            assert row["start"] == w_lo.isoformat()
            assert row["end"] == w_hi.isoformat()
            reference = offline_span_engine(
                manager, w_lo, w_hi,
                90.0 if decayed else None, w_hi,
            )
            if reference is None:
                assert row["estimate"] is None and row["empty"]
            else:
                assert row["estimate"] == reference.estimate(spec), (
                    f"window [{w_lo}, {w_hi}) diverged under plan {plan!r}"
                )

    @settings(deadline=None, max_examples=20)
    @given(plan=lifecycle_plans(), half_life=st.sampled_from([30.0, 600.0]))
    def test_decayed_estimate_matches_offline(
        self, tmp_path_factory, plan, half_life
    ):
        clock = Clock()
        manager = build_lifecycle(
            tmp_path_factory.mktemp("svc"), plan, clock
        )
        planner = QueryPlanner(manager)
        served = planner.estimate(
            "web", "l1", ("h1", "h2"), decay=half_life
        )
        lo, hi = data_span(manager)
        anchor = served["anchor"]
        assert anchor == hi.timestamp()  # default: end of the data span
        reference = offline_span_engine(manager, lo, hi, half_life, anchor)
        assert served["estimate"] == reference.estimate(
            AggregationSpec("l1", ("h1", "h2"))
        ), f"decayed l1 diverged under plan {plan!r}"

    def test_no_decay_means_undecayed_answer(self, tmp_path):
        clock = Clock()
        manager = LiveWindowManager(
            SummaryStore(tmp_path / "s"), (NS,), clock=clock
        )
        for bucket in range(3):
            keys = [bucket * 1000 + i for i in range(5)]
            manager.ingest("web", keys, {
                "h1": np.arange(1.0, 6.0), "h2": np.arange(5.0, 0.0, -1.0),
            })
            clock.now += 60.0
        manager.rotate()
        planner = QueryPlanner(manager)
        plain = planner.estimate("web", "max", ("h1", "h2"))
        huge = planner.estimate(
            "web", "max", ("h1", "h2"), decay="365d",
            anchor=clock.now,
        )
        # an (almost) infinite half-life decays nothing appreciable
        assert huge["estimate"] == pytest.approx(
            plain["estimate"], rel=1e-4
        )
        short = planner.estimate(
            "web", "max", ("h1", "h2"), decay="30s", anchor=clock.now,
        )
        assert short["estimate"] < plain["estimate"]


class TestPartialFrontier:
    def _manager_with_buckets(self, root, n_buckets=6):
        clock = Clock()
        manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
        for bucket in range(n_buckets):
            keys = [bucket * 1000 + i for i in range(10)]
            rng = np.random.default_rng(bucket)
            manager.ingest("web", keys, {
                "h1": rng.pareto(1.3, 10) + 0.1,
                "h2": rng.pareto(1.5, 10) + 0.1,
            })
            clock.now += 60.0
        manager.rotate()
        return manager

    def test_overlapping_windows_share_bucket_partials(self, tmp_path):
        manager = self._manager_with_buckets(tmp_path / "s")
        planner = QueryPlanner(manager)
        planner.window_series(
            "web", "max", ("h1", "h2"), window="3m", step="1m"
        )
        # 6 stored buckets, each built exactly once; every additional
        # window covering a bucket hits the frontier instead.
        assert planner.stats["partial_builds"] == 6
        assert planner.stats["partial_hits"] > 0
        assert planner.stats["window_queries"] == 1

    def test_series_result_is_version_cached(self, tmp_path):
        manager = self._manager_with_buckets(tmp_path / "s")
        planner = QueryPlanner(manager)
        first = planner.window_series(
            "web", "max", ("h1", "h2"), window="2m", step="1m"
        )
        assert first["cached"] is False
        second = planner.window_series(
            "web", "max", ("h1", "h2"), window="2m", step="1m"
        )
        assert second["cached"] is True
        assert second["windows"] == first["windows"]
        # an ingest moves the version; the cached row must not serve
        manager.ingest("web", [999_999], {
            "h1": np.array([1.0]), "h2": np.array([2.0]),
        })
        third = planner.window_series(
            "web", "max", ("h1", "h2"), window="2m", step="1m"
        )
        assert third["cached"] is False
        assert third["version"] != first["version"]

    def test_frontier_evicts_at_capacity(self, tmp_path):
        manager = self._manager_with_buckets(tmp_path / "s", n_buckets=5)
        planner = QueryPlanner(manager, max_cached_partials=3)
        planner.window_series(
            "web", "max", ("h1", "h2"), window="2m", step="1m"
        )
        assert len(planner._partials) <= 3
        assert planner.stats["partial_builds"] == 5


class TestProbeVersionDiscipline:
    """PR 7 satellite: audit the persistent-cache probe for stale serves.

    The invariant: a probe hit is always an answer computed under
    exactly the version token embedded in its key, and the token the
    caller observes in the answer is that same version — even when the
    namespace mutates between the fast-path probe and the plan.
    """

    def _manager(self, root):
        clock = Clock()
        manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
        manager.ingest("web", [1, 2, 3], {
            "h1": np.array([1.0, 2.0, 3.0]),
            "h2": np.array([3.0, 2.0, 1.0]),
        })
        return manager, clock

    def test_mutation_between_probe_and_plan_yields_fresh_answer(
        self, tmp_path
    ):
        manager, _clock = self._manager(tmp_path / "s")
        planner = QueryPlanner(manager)
        original_probe = planner._probe
        mutated = {"done": False}

        def probe_then_mutate(key):
            hit = original_probe(key)
            if not mutated["done"]:
                mutated["done"] = True
                # Adversarial interleaving: the namespace moves right
                # after the fast-path probe misses.
                manager.ingest("web", [100], {
                    "h1": np.array([50.0]), "h2": np.array([50.0]),
                })
            return hit

        planner._probe = probe_then_mutate
        answer = planner.estimate("web", "max", ("h1", "h2"))
        planner._probe = original_probe
        # The served answer must reflect a version observed *after* the
        # mutation (plan re-reads under the manager lock) — and must
        # include the mutated data.
        assert answer["version"] == manager.version("web")
        reference = offline_span_engine(
            manager, *data_span(manager), None, None
        )
        assert answer["estimate"] == reference.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_version_tokens_never_repeat_across_mutations(self, tmp_path):
        manager, clock = self._manager(tmp_path / "s")
        seen = {manager.version("web")}
        for step in range(4):
            manager.ingest("web", [1000 + step], {
                "h1": np.array([1.0]), "h2": np.array([1.0]),
            })
            token = manager.version("web")
            assert token not in seen, "version token reused after mutation"
            seen.add(token)
        clock.now += 60.0
        manager.rotate()
        token = manager.version("web")
        assert token not in seen
        seen.add(token)
        manager.compact(to="hour")
        assert manager.version("web") not in seen

    def test_cached_answer_replays_identically_across_restart(
        self, tmp_path
    ):
        manager, clock = self._manager(tmp_path / "s")
        planner = QueryPlanner(manager)
        first = planner.estimate("web", "max", ("h1", "h2"))
        assert first["cached"] is False
        # clean shutdown -> new manager + planner over the same store
        manager.checkpoint()
        manager2 = LiveWindowManager(
            SummaryStore(tmp_path / "s", create=False), (NS,), clock=clock
        )
        planner2 = QueryPlanner(manager2)
        replay = planner2.estimate("web", "max", ("h1", "h2"))
        assert replay["cached"] is True
        assert replay["estimate"] == first["estimate"]
        assert replay["version"] == first["version"]


class TestIntersectionSemantics:
    """Pin the inclusive-``since``/``until`` half-open intersection rules
    shared by ``QueryPlanner._live_in_window`` and
    ``SummaryStore.bundle_entries`` across mixed granularities."""

    def _store_with_mixed_granularities(self, root):
        """Minute buckets 12:00..12:02 compacted into hour 12, plus a
        stray minute bucket at 13:30 — a store holding hour AND minute
        artifacts side by side."""
        clock = Clock()
        manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
        for bucket in range(3):
            keys = [bucket * 1000 + i for i in range(4)]
            manager.ingest("web", keys, {
                "h1": np.arange(1.0, 5.0), "h2": np.arange(4.0, 0.0, -1.0),
            })
            clock.now += 60.0
        manager.rotate()
        manager.compact(to="hour")
        clock.now = T0 + 90 * 60.0  # 13:30
        manager.ingest("web", [9000, 9001], {
            "h1": np.array([1.0, 2.0]), "h2": np.array([2.0, 1.0]),
        })
        clock.now += 60.0
        manager.rotate()
        return manager

    def test_minute_window_selects_covering_hour_rollup(self, tmp_path):
        manager = self._store_with_mixed_granularities(tmp_path / "s")
        store = manager.store
        buckets = {e.bucket for e in store.bundle_entries("web")}
        assert "20260728T12" in buckets          # the hour rollup
        assert "20260728T1330" in buckets        # the stray minute
        # a minute-granularity window inside the hour still selects the
        # hour rollup (span intersection, not id-prefix matching)
        selected = store.bundle_entries(
            "web", since="20260728T1201", until="20260728T1201"
        )
        assert [e.bucket for e in selected] == ["20260728T12"]

    def test_half_open_edges(self, tmp_path):
        manager = self._store_with_mixed_granularities(tmp_path / "s")
        store = manager.store
        # until=12:59 (inclusive) -> [.., 13:00): hour 12 in, 13:30 out
        selected = store.bundle_entries("web", until="20260728T1259")
        assert {e.bucket for e in selected} == {"20260728T12"}
        # since=13:00 -> [13:00, ..): hour 12's span [12:00,13:00) is
        # disjoint from it (half-open), minute 13:30 is in
        selected = store.bundle_entries("web", since="20260728T1300")
        assert {e.bucket for e in selected} == {"20260728T1330"}
        # since=12:59 keeps the hour: its span reaches past 12:59:00
        selected = store.bundle_entries("web", since="20260728T1259")
        assert {e.bucket for e in selected} == {
            "20260728T12", "20260728T1330",
        }

    def test_bundle_entries_spanning_datetime_bounds(self, tmp_path):
        manager = self._store_with_mixed_granularities(tmp_path / "s")
        store = manager.store
        lo = datetime(2026, 7, 28, 12, 30, tzinfo=timezone.utc)
        hi = datetime(2026, 7, 28, 13, 31, tzinfo=timezone.utc)
        selected = store.bundle_entries_spanning("web", lo, hi)
        assert {e.bucket for e in selected} == {
            "20260728T12", "20260728T1330",
        }
        # end exactly at a bucket's start excludes it (half-open)
        selected = store.bundle_entries_spanning(
            "web", end=datetime(2026, 7, 28, 12, 0, tzinfo=timezone.utc)
        )
        assert selected == []
        # start exactly at a bucket's end excludes it too
        selected = store.bundle_entries_spanning(
            "web", start=datetime(2026, 7, 28, 13, 31, tzinfo=timezone.utc)
        )
        assert selected == []

    @pytest.mark.parametrize("live_bucket,since,until,expect", [
        # live minute window 12:34 against assorted selections
        ("20260728T1234", None, None, True),
        ("20260728T1234", "20260728T1234", "20260728T1234", True),
        # hour-granularity since covering the live minute
        ("20260728T1234", "20260728T12", None, True),
        # until before the window starts
        ("20260728T1234", None, "20260728T1233", False),
        # since after the window ends (half-open: 12:35 is out)
        ("20260728T1234", "20260728T1235", None, False),
        # day granularity covers everything that day
        ("20260728T1234", "20260728", "20260728", True),
        # live hour window vs a minute-granularity query inside it
        ("20260728T12", "20260728T1215", "20260728T1215", True),
        ("20260728T12", "20260728T1300", None, False),
    ])
    def test_live_in_window_pinning(
        self, tmp_path, live_bucket, since, until, expect
    ):
        manager = LiveWindowManager(
            SummaryStore(tmp_path / "s"), (NS,), clock=Clock()
        )
        planner = QueryPlanner(manager)
        assert (
            planner._live_in_window(live_bucket, since, until) is expect
        )

    def test_planner_agrees_with_store_on_the_same_edges(self, tmp_path):
        """The two intersection implementations pin each other: a stored
        bucket is selected by bundle_entries iff _live_in_window accepts
        the same bucket id for the same since/until."""
        manager = self._store_with_mixed_granularities(tmp_path / "s")
        planner = QueryPlanner(manager)
        store = manager.store
        all_buckets = [e.bucket for e in store.bundle_entries("web")]
        edges = [None, "20260728T1200", "20260728T1259", "20260728T1300",
                 "20260728T12", "20260728T1330", "20260728"]
        for since in edges:
            for until in edges:
                selected = {
                    e.bucket
                    for e in store.bundle_entries(
                        "web", since=since, until=until
                    )
                }
                for bucket in all_buckets:
                    assert (
                        bucket in selected
                    ) == planner._live_in_window(bucket, since, until)
