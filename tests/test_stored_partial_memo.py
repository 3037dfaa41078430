"""The planner's stored-side partial-merge memo, keyed on ``bundle_rev``.

The memo must be invisible in every answer — each one bit-identical to a
memo-less oracle (``QueryEngine.from_bundles`` over fresh ``store.load``s
plus the live bundle) across any interleaving of ingests and store
mutations — while surviving ingest (a hit per fresh query, no rebuild),
rebuilding exactly when the store's bundle revision moves, keeping the
merges' duplicate-key refusal for keys an earlier merge dropped, and
holding at most one revision's entries.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.aggregates import AggregationSpec
from repro.core.predicates import key_in
from repro.engine.queries import QueryEngine
from repro.obs import parse_prometheus_text
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner, view_bundles
from repro.service.temporal import decay_factor, resolve_windows
from repro.service.windows import LIVE_PART, LiveWindowManager
from repro.store import SummaryStore
from repro.store.codec import encode
from repro.store.store import bucket_bounds, bucket_for

T0 = datetime(2026, 7, 28, 12, 0, 0, tzinfo=timezone.utc).timestamp()
NAMES = ("h1", "h2")


class Clock:
    def __init__(self) -> None:
        self.now = T0

    def __call__(self) -> float:
        return self.now


def namespace(family: str = "ipps", k: int = 6) -> NamespaceConfig:
    return NamespaceConfig(
        "web", NAMES, k=k, family=family, salt=21
    )


# -- the memo-less oracle -------------------------------------------------------


def oracle_parts(manager, since=None, until=None):
    """``(bucket, bundle)`` parts of the view, read fresh: stored entries
    in entry order (the live window's own flush masked), the live last."""
    window = manager._window("web")
    parts = []
    for entry in manager.store.bundle_entries("web", since=since, until=until):
        if window.events and (
            entry.bucket == window.bucket and entry.part == LIVE_PART
        ):
            continue
        parts.append((entry.bucket, manager.store.load(entry)))
    n_stored = len(parts)
    live_events = 0
    if QueryPlanner._live_in_window(window.bucket, since, until):
        _bucket, live_events, live = manager.live_view("web")
        if live is not None:
            parts.append((window.bucket, live))
    return parts, n_stored, live_events


def oracle_span(parts, span_lo, span_hi, decay_s, anchor):
    """Flat, per-part scaled engine over one half-open span (or None)."""
    bundles, scales = [], []
    for bucket, bundle in parts:
        lo, hi = bucket_bounds(bucket)
        if hi <= span_lo or lo >= span_hi:
            continue
        bundles.append(bundle)
        scales.append(
            1.0 if decay_s is None else decay_factor(lo, anchor, decay_s)
        )
    if not bundles:
        return None
    return QueryEngine.from_bundles(bundles, scales=scales)


def data_span(parts):
    spans = [bucket_bounds(bucket) for bucket, _bundle in parts]
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


def outcome(thunk):
    """A call's value, or the type of what it raised."""
    try:
        return thunk()
    except (LookupError, ValueError) as err:
        return type(err)


def same(a, b) -> bool:
    """Bit-for-bit: equal floats, or both NaN."""
    return a == b or (a != a and b != b)


# -- hypothesis state machine ---------------------------------------------------

_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
)
_function = st.sampled_from([
    ("max", NAMES), ("min", NAMES), ("l1", NAMES),
    ("single", ("h1",)), ("single", ("h2",)),
])


class MemoMachine(RuleBasedStateMachine):
    """Every answer equals the memo-less oracle's, whatever came before."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="memo-"))
        self.clock = Clock()
        self.minute = 0  # bucket-disjoint key ranges: one per clock step
        self.imports = 0

    def teardown(self) -> None:
        self.manager.store.runtime.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize(
        family=st.sampled_from(["ipps", "exp"]),
        capacity=st.sampled_from([2, 128]),
    )
    def start(self, family, capacity):
        self.config = namespace(family)
        self.manager = LiveWindowManager(
            SummaryStore(self.root / "store"), (self.config,),
            clock=self.clock,
        )
        self.planner = QueryPlanner(
            self.manager, max_cached_partials=capacity
        )

    # -- mutations

    @rule(
        ids=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        weights=st.data(),
        names=st.sampled_from([NAMES, ("h1",), ("h2",)]),
    )
    def ingest(self, ids, weights, names):
        keys = [self.minute * 1000 + key_id for key_id in ids]
        self.manager.ingest("web", keys, {
            name: np.asarray(weights.draw(
                st.lists(_weight, min_size=len(ids), max_size=len(ids))
            ))
            for name in names
        })

    @rule()
    def flush(self):
        self.manager.rotate(force=True)

    @rule(hours=st.sampled_from([0, 0, 1]))
    def boundary_rotation(self, hours):
        self.clock.now += 60.0 + 3600.0 * hours
        self.minute += 1
        self.manager.rotate()

    @rule()
    def compact(self):
        self.manager.compact(to="hour")

    def _foreign_bundle(self, n):
        """A bundle over keys no window ever ingests."""
        self.imports += 1
        summarizer = self.config.make_summarizer()
        keys = [5_000_000 + self.imports * 100 + i for i in range(n)]
        rng = np.random.default_rng(self.imports)
        summarizer.ingest_multi(keys, {
            name: rng.pareto(1.3, n) + 0.05 for name in NAMES
        })
        return encode(summarizer.sketch_bundle())

    @rule(n=st.integers(1, 10), back=st.integers(0, 3))
    def import_new(self, n, back):
        bucket = bucket_for(self.clock.now - 60.0 * back, "minute")
        self.manager.store.import_bundle(
            "web", bucket, f"imp-{self.imports + 1}", self._foreign_bundle(n)
        )

    def _imported(self):
        return [
            entry for entry in self.manager.store.bundle_entries("web")
            if entry.part.startswith("imp-")
        ]

    @precondition(lambda self: self._imported())
    @rule(n=st.integers(1, 10), pick=st.integers(0, 1000))
    def import_overwrite(self, n, pick):
        entries = self._imported()
        entry = entries[pick % len(entries)]
        self.manager.store.import_bundle(
            "web", entry.bucket, entry.part, self._foreign_bundle(n),
            overwrite=True,
        )

    @precondition(lambda self: self.manager.store.bundle_entries("web"))
    @rule(pick=st.integers(0, 1000))
    def remove(self, pick):
        entries = self.manager.store.bundle_entries("web")
        entry = entries[pick % len(entries)]
        self.manager.store.remove("web", entry.bucket, entry.part)

    @rule()
    def reset(self):
        self.manager.reset("web")

    # -- queries, each against the oracle

    def _check_estimate(self, spec_args, keys, since, until):
        function, names = spec_args
        spec = AggregationSpec(function, names)
        predicate = None if keys is None else key_in(keys)

        def expected():
            parts, n_stored, live_events = oracle_parts(
                self.manager, since, until
            )
            if not parts:
                raise LookupError("no data")
            engine = QueryEngine.from_bundles([b for _bucket, b in parts])
            return (
                engine.estimate(spec, predicate=predicate),
                n_stored, live_events, engine.summary.n_union,
            )

        def served():
            answer = self.planner.estimate(
                "web", function, names, keys=keys, since=since, until=until
            )
            sources = answer["sources"]
            return (
                answer["estimate"], sources["stored_entries"],
                sources["live_events"], sources["union_keys"],
            )

        want, got = outcome(expected), outcome(served)
        if isinstance(want, tuple) and isinstance(got, tuple):
            assert same(want[0], got[0]) and want[1:] == got[1:], (want, got)
        else:
            assert want == got, (want, got)

    @rule(spec_args=_function)
    def query_plain(self, spec_args):
        self._check_estimate(spec_args, None, None, None)

    @rule(
        spec_args=_function,
        ids=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        minute=st.integers(0, 3),
    )
    def query_keys(self, spec_args, ids, minute):
        base = max(self.minute - minute, 0) * 1000
        keys = [base + key_id for key_id in ids] + [5_000_100, 5_000_201]
        self._check_estimate(spec_args, keys, None, None)

    @rule(
        spec_args=_function,
        lo=st.integers(0, 4), hi=st.integers(0, 4),
        coarse=st.booleans(), open_end=st.sampled_from(["", "since", "until"]),
    )
    def query_window(self, spec_args, lo, hi, coarse, open_end):
        granularity = "hour" if coarse else "minute"
        since = bucket_for(self.clock.now - 60.0 * max(lo, hi), granularity)
        until = bucket_for(self.clock.now - 60.0 * min(lo, hi), granularity)
        if open_end == "since":
            since = None
        elif open_end == "until":
            until = None
        self._check_estimate(spec_args, None, since, until)

    @rule(spec_args=_function, half_life=st.sampled_from(["45s", "10m"]))
    def query_decay(self, spec_args, half_life):
        function, names = spec_args
        spec = AggregationSpec(function, names)

        def expected():
            parts, _n, _live = oracle_parts(self.manager)
            if not parts:
                raise LookupError("no data")
            lo, hi = data_span(parts)
            decay_s = 45.0 if half_life == "45s" else 600.0
            engine = oracle_span(parts, lo, hi, decay_s, hi.timestamp())
            return engine.estimate(spec)

        want = outcome(expected)
        got = outcome(lambda: self.planner.estimate(
            "web", function, names, decay=half_life
        )["estimate"])
        assert same(want, got), (want, got)

    @rule(spec_args=_function, decay=st.sampled_from([None, "90s"]))
    def query_series(self, spec_args, decay):
        function, names = spec_args
        spec = AggregationSpec(function, names)

        def expected():
            parts, _n, _live = oracle_parts(self.manager)
            if not parts:
                raise LookupError("no data")
            lo, hi = data_span(parts)
            rows = []
            for w_lo, w_hi in resolve_windows(lo, hi, 120.0, 60.0, None):
                engine = oracle_span(
                    parts, w_lo, w_hi, None if decay is None else 90.0, w_hi
                )
                rows.append(None if engine is None else engine.estimate(spec))
            return rows

        want = outcome(expected)
        got = outcome(lambda: [
            row["estimate"] for row in self.planner.window_series(
                "web", function, names, window="2m", step="1m", decay=decay
            )["windows"]
        ])
        if isinstance(want, list) and isinstance(got, list):
            assert len(want) == len(got)
            assert all(map(same, want, got)), (want, got)
        else:
            assert want == got, (want, got)

    @rule()
    def bundle_view(self):
        """What ``GET /bundle`` encodes: the flat merge, byte for byte."""
        def merged(bundles):
            if not bundles:
                raise LookupError("no data")
            return encode(bundles[0].merge(*bundles[1:]))

        want = outcome(lambda: merged(
            [bundle for _bucket, bundle in oracle_parts(self.manager)[0]]
        ))
        got = outcome(lambda: merged(
            view_bundles(*self.planner.view("web")[:2])
        ))
        assert want == got

    # -- after every step: the plain answer, and the memo itself

    @invariant()
    def plain_answer_matches(self):
        if hasattr(self, "planner"):
            self._check_estimate(("max", NAMES), None, None, None)

    @invariant()
    def one_generation(self):
        if hasattr(self, "planner"):
            assert len({key[1] for key in self.planner._partials}) <= 1
            assert (
                len(self.planner._partials)
                <= self.planner.max_cached_partials
            )


TestMemoMachine = MemoMachine.TestCase
TestMemoMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# -- directed cases -------------------------------------------------------------


def batch(lo, n, seed=None):
    rng = np.random.default_rng(lo if seed is None else seed)
    return list(range(lo, lo + n)), {
        "h1": rng.pareto(1.3, n) + 0.05, "h2": rng.pareto(1.5, n) + 0.05,
    }


@pytest.fixture
def stored(tmp_path):
    """A manager beside three stored minute buckets, and its planner."""
    clock = Clock()
    manager = LiveWindowManager(
        SummaryStore(tmp_path / "s"), (namespace(k=8),), clock=clock
    )
    for minute in range(3):
        manager.ingest("web", *batch(minute * 1000, 20))
        clock.now += 60.0
    manager.rotate()
    yield manager, QueryPlanner(manager), clock
    manager.store.runtime.close()


def oracle_estimate(manager, function="max"):
    parts, _n, _live = oracle_parts(manager)
    engine = QueryEngine.from_bundles([bundle for _bucket, bundle in parts])
    return engine.estimate(AggregationSpec(function, NAMES))


class TestMemoLifetime:
    def test_hit_across_ingests_without_rebuild(self, stored):
        manager, planner, _clock = stored
        planner.estimate("web", "max", NAMES)
        builds = planner.stats["partial_builds"]
        assert builds == 4  # three entries and their merge
        for step in range(4):
            manager.ingest("web", *batch(9000 + step * 10, 5))
            hits = planner.stats["partial_hits"]
            answer = planner.estimate("web", "max", NAMES)
            assert answer["cached"] is False
            assert answer["estimate"] == oracle_estimate(manager)
            assert answer["sources"]["stored_entries"] == 3
            assert planner.stats["partial_builds"] == builds
            assert planner.stats["partial_hits"] == hits + 1

    def test_windows_and_bundle_view_share_the_memo(self, stored):
        manager, planner, _clock = stored
        planner.window_series("web", "max", NAMES, window="2m", step="1m")
        assert planner.stats["partial_builds"] == 3  # one per bucket
        planner.estimate("web", "max", NAMES)
        assert planner.stats["partial_builds"] == 4  # only their merge
        manager.ingest("web", *batch(9000, 5))
        planner.window_series("web", "max", NAMES, window="2m", step="1m")
        planner.estimate("web", "l1", NAMES, decay="5m")
        planner.view("web")
        assert planner.stats["partial_builds"] == 4

    def test_rebuild_exactly_when_bundle_rev_moves(self, stored):
        manager, planner, clock = stored
        store = manager.store
        planner.estimate("web", "max", NAMES)
        rev = store.bundle_version("web")
        builds = planner.stats["partial_builds"]
        # a live-window checkpoint moves the store, not its bundles
        manager.ingest("web", *batch(9000, 5))
        manager.checkpoint()
        assert store.bundle_version("web") == rev
        planner.estimate("web", "max", NAMES)
        assert planner.stats["partial_builds"] == builds
        # a flush publishes the window's bundle: the revision moves —
        # while the window is non-empty its own flush is masked, so the
        # selection is the same three paths under a new revision
        manager.rotate(force=True)
        assert store.bundle_version("web") != rev
        answer = planner.estimate("web", "min", NAMES)
        assert answer["estimate"] == oracle_estimate(manager, "min")
        assert planner.stats["partial_builds"] == builds + 4
        # after the boundary the flushed bucket is a stored part too
        clock.now += 60.0
        manager.rotate()
        answer = planner.estimate("web", "min", NAMES)
        assert answer["estimate"] == oracle_estimate(manager, "min")
        assert answer["sources"] == {
            "stored_entries": 4, "live_events": 0,
            "union_keys": answer["sources"]["union_keys"],
        }
        assert planner.stats["partial_builds"] == builds + 4 + 5

    def test_flush_query_loop_holds_one_generation(self, stored):
        manager, planner, _clock = stored
        revisions = set()
        for step in range(5):
            manager.ingest("web", *batch(9000 + step * 10, 5))
            manager.rotate(force=True)
            planner.estimate("web", "max", NAMES)
            planner.window_series("web", "max", NAMES, window="2m")
            generations = {key[1] for key in planner._partials}
            assert generations == {manager.store.bundle_version("web")}
            revisions |= generations
            assert len(planner._partials) == 4
        assert len(revisions) == 5

    def test_stale_build_is_not_kept(self, stored):
        manager, planner, _clock = stored
        entries = manager.store.bundle_entries("web")
        _partial, outcome = planner._stored_partial(
            "web", "b-gone", entries[:1]
        )
        assert outcome == "build" and not planner._partials


class TestDuplicateRefusal:
    def _dropped_key(self, manager, planner):
        """A stored sample key the stored merge no longer carries."""
        stored, _live, _version, _sources = planner.view("web")
        kept = set(stored.bundle.sketches["h1"].keys.tolist())
        dropped = sorted(set(stored.sample_keys["h1"].tolist()) - kept)
        assert dropped, "the merge must have dropped sample keys"
        return dropped[0]

    def test_live_key_colliding_with_a_dropped_stored_key_raises(
        self, stored
    ):
        manager, planner, _clock = stored
        key = self._dropped_key(manager, planner)
        manager.ingest("web", [key], {
            "h1": np.array([1.0]), "h2": np.array([1.0]),
        })
        match = "present in more than one sketch"
        with pytest.raises(ValueError, match=match):
            planner.estimate("web", "max", NAMES)
        with pytest.raises(ValueError, match=match):
            view_bundles(*planner.view("web")[:2])
        with pytest.raises(ValueError, match=match):
            planner.estimate("web", "max", NAMES, decay="5m")
        with pytest.raises(ValueError, match=match):
            planner.window_series("web", "max", NAMES, window="10m")
        # ... exactly as the memo-less nine-way merge refuses it
        with pytest.raises(ValueError, match=match):
            oracle_estimate(manager)

    def test_stored_parts_sharing_a_dropped_key_raise(self, tmp_path):
        config = namespace(k=4)
        manager = LiveWindowManager(
            SummaryStore(tmp_path / "s"), (config,), clock=Clock()
        )
        store = manager.store

        def bundle(keys, seed):
            summarizer = config.make_summarizer()
            rng = np.random.default_rng(seed)
            summarizer.ingest_multi(keys, {
                name: rng.pareto(1.3, len(keys)) + 0.05 for name in NAMES
            })
            return summarizer.sketch_bundle()

        # bucket A: two parts whose merge drops some of a1's sample keys
        a1, a2 = bundle(list(range(0, 8)), 1), bundle(list(range(8, 16)), 2)
        merged = a1.merge(a2)
        dropped = sorted(
            set(a1.sketches["h1"].keys.tolist())
            - set(merged.sketches["h1"].keys.tolist())
        )
        assert dropped
        store.write("web", "20260728T1100", a1, part="p1")
        store.write("web", "20260728T1100", a2, part="p2")
        # bucket B samples a key bucket A's partial no longer carries
        b = bundle([dropped[0], 100, 101], 3)
        assert dropped[0] in b.sketches["h1"].keys.tolist()
        store.write("web", "20260728T1101", b, part="p1")
        planner = QueryPlanner(manager)
        with pytest.raises(ValueError, match="present in more than one"):
            planner.estimate("web", "max", NAMES)
        store.runtime.close()


class TestRaces:
    def test_file_not_found_mid_build_resnapshots(self, stored):
        manager, planner, _clock = stored
        store = manager.store
        real_load = store.load
        calls = {"n": 0}

        def load_after_compaction(entry, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # mid-build: one part loaded, then it moves
                store.compact("web", to="hour")
            return real_load(entry, **kwargs)

        store.load = load_after_compaction
        try:
            answer = planner.estimate("web", "max", NAMES)
        finally:
            del store.load
        assert answer["sources"]["stored_entries"] == 1  # the hour rollup
        assert answer["version"] == manager.version("web")
        assert answer["estimate"] == oracle_estimate(manager)
        assert {key[1] for key in planner._partials} == {
            store.bundle_version("web")
        }

    def test_two_threads_racing_a_first_build_insert_once(self, stored):
        manager, planner, _clock = stored
        store = manager.store
        entries = store.bundle_entries("web")[:1]
        rev = store.bundle_version("web")
        barrier = threading.Barrier(2, timeout=10)
        real_load = store.load

        def load_together(entry, **kwargs):
            barrier.wait()  # both threads have missed the memo
            return real_load(entry, **kwargs)

        store.load = load_together
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    planner._stored_partial("web", rev, entries)[0]
                )
            )
            for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            del store.load
        assert len(results) == 2 and results[0] is results[1]
        assert len(planner._partials) == 1
        assert planner.stats["partial_builds"] == 1
        assert planner.stats["partial_hits"] == 1


    def test_stress_lookups_build_each_key_once(self, stored):
        """More threads than cores, a short switch interval: no lost
        update in the memo or its counters."""
        manager, planner, _clock = stored
        entries = manager.store.bundle_entries("web")
        rev = manager.store.bundle_version("web")
        selections = [entries, entries[:1], entries[1:2], entries[2:]]
        rounds, n_threads = 50, 8
        errors = []

        def worker(offset):
            try:
                for step in range(rounds):
                    chosen = selections[(offset + step) % len(selections)]
                    partial, _outcome = planner._stored_partial(
                        "web", rev, chosen
                    )
                    assert partial.entries == len(chosen)
            except Exception as err:  # surfaced below, off-thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(planner._partials) == 4
        assert planner.stats["partial_builds"] == 4
        # every lookup is one hit or one build; a selection's build also
        # looks its three buckets up
        stats = planner.stats
        assert stats["partial_hits"] + stats["partial_builds"] >= (
            rounds * n_threads
        )


class TestServed:
    @pytest.fixture
    def service(self, tmp_path):
        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=(namespace(k=8),),
            port=0, compact_to=None, tick_s=3600.0, granularity="day",
        )
        store = SummaryStore(config.store_root)
        for day in range(3):
            summarizer = config.namespaces[0].make_summarizer()
            keys, weights = batch(day * 1000, 20)
            summarizer.ingest_multi(keys, weights)
            store.write(
                "web", f"2026010{day + 1}", summarizer.sketch_bundle(),
                part=LIVE_PART,
            )
        store.runtime.close()
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            yield thread.service, client
            client.close()

    def _parent_blob(self, manager, since=None, until=None):
        """``GET /bundle`` as the parent computed it: one flat merge."""
        parts, _n, _live = oracle_parts(manager, since, until)
        bundles = [bundle for _bucket, bundle in parts]
        return encode(bundles[0].merge(*bundles[1:])), len(bundles)

    def test_get_bundle_bytes_match_the_flat_merge(self, service):
        server, client = service
        for step in range(3):
            if step:
                keys, weights = batch(9000 + step * 10, 6)
                client.ingest("web", keys, {
                    name: w.tolist() for name, w in weights.items()
                }, sync=True)
            for since, until in ((None, None), ("20260102", "20260103")):
                params = "namespace=web" + (
                    f"&since={since}&until={until}" if since else ""
                )
                _status, headers, blob = client._raw_request(
                    "GET", f"/bundle?{params}", None, {}, True, None
                )
                expected, count = self._parent_blob(
                    server.manager, since, until
                )
                assert blob == expected
                assert headers["X-Repro-Sources"] == str(count)
                assert headers["X-Repro-Version"] == (
                    server.manager.version("web")
                )

    def test_span_counter_and_status(self, service):
        _server, client = service
        keys, weights = batch(9000, 6)
        for step in range(3):
            client.ingest("web", [key + step * 10 for key in keys], {
                name: w.tolist() for name, w in weights.items()
            }, sync=True)
            client.estimate("web", "max", NAMES)
        samples = parse_prometheus_text(client.metrics())
        name = "repro_stored_partial_lookups_total"
        assert samples[(name, (("outcome", "build"),))] == 1
        assert samples[(name, (("outcome", "hit"),))] == 2
        planner = client.status()["planner"]
        assert planner["partial_builds"] == 4
        assert planner["partial_hits"] == 2
        spans = [
            span for span in client.trace_recent(limit=200)["spans"]
            if span["name"] == "stored-partial"
        ]
        assert len(spans) == 3
        assert all(span["tags"]["entries"] == 3 for span in spans)
        assert all(span["parent"] is not None for span in spans)
        assert sorted(span["tags"]["outcome"] for span in spans) == [
            "build", "hit", "hit",
        ]
