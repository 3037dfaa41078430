"""Service answers are exact: live + stored == one uninterrupted stream.

The acceptance property of the always-on service: a query served over
(live window merged with stored buckets) returns **bit-identical**
estimates to an offline :class:`~repro.engine.queries.QueryEngine` run
over the equivalently merged summaries — here pinned against the
strongest offline reference, a *single* :class:`ShardedSummarizer` fed
the whole event stream with no service machinery at all.

Hypothesis drives arbitrary interleavings of the service lifecycle:
multi-batch ingestion, mid-bucket durability flushes (followed by more
events for the *same* keys), minute-boundary rotations, checkpoint +
restart (a fresh :class:`LiveWindowManager` resuming from the store),
crashes right after a flush (restart with no clean checkpoint — the
flush's own checkpoint must resume the full window state), and hour/day
compactions, in any order.  Keys never recur across time
buckets (the store's documented key-disjointness contract for exact
merges); within a bucket they repeat freely.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.windows import LiveWindowManager
from repro.store import SummaryStore

T0 = datetime(2026, 7, 28, 12, 0, 0, tzinfo=timezone.utc).timestamp()
NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=21)

_weights = st.floats(
    min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def lifecycle_plans(draw):
    """A service lifecycle: ingests, clock advances, restarts, compactions.

    Returns a list of ops.  Keys carry a per-segment offset, so events in
    different time buckets are key-disjoint by construction while repeats
    within a bucket exercise live-window aggregation.
    """
    ops = []
    n_segments = draw(st.integers(1, 3))
    for segment in range(n_segments):
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(1, 10))
            ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
            keys = [segment * 100_000 + key_id for key_id in ids]
            w1 = draw(st.lists(_weights, min_size=n, max_size=n))
            w2 = draw(st.lists(_weights, min_size=n, max_size=n))
            ops.append(("ingest", keys, w1, w2))
            if draw(st.booleans()):
                ops.append(("restart",))
            if draw(st.booleans()):
                # mid-bucket flush: durability publish; later ingests may
                # repeat the same keys in the same bucket and must stay
                # exact (the flush artifact is overwritten, not joined)
                ops.append(("flush",))
                if draw(st.booleans()):
                    # crash right after the flush: restart WITHOUT a clean
                    # checkpoint() — the flush's own checkpoint must
                    # resume the full window state, losing nothing
                    ops.append(("crash",))
        if segment < n_segments - 1:
            ops.append(("advance",))
            if draw(st.booleans()):
                ops.append(("rotate",))
            if draw(st.booleans()):
                ops.append(("compact", draw(st.sampled_from(["hour", "day"]))))
    if draw(st.booleans()):
        ops.append(("restart",))
    return ops


class Clock:
    def __init__(self) -> None:
        self.now = T0

    def __call__(self) -> float:
        return self.now


@settings(deadline=None)
@given(plan=lifecycle_plans())
def test_service_view_matches_uninterrupted_stream(tmp_path_factory, plan):
    root = tmp_path_factory.mktemp("svc")
    clock = Clock()
    manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
    offline = NS.make_summarizer()

    for op in plan:
        if op[0] == "ingest":
            _tag, keys, w1, w2 = op
            weights = {
                "h1": np.asarray(w1, dtype=float),
                "h2": np.asarray(w2, dtype=float),
            }
            manager.ingest("web", keys, weights)
            offline.ingest_multi(keys, weights)
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
        elif op[0] == "crash":  # only ever drawn right after a flush
            manager = LiveWindowManager(
                SummaryStore(root, create=False), (NS,), clock=clock
            )
        elif op[0] == "compact":
            manager.compact(to=op[1])

    reference = QueryEngine(offline.summary())
    planner = QueryPlanner(manager)
    for function in ("max", "min", "l1"):
        spec = AggregationSpec(function, ("h1", "h2"))
        served = planner.estimate("web", function, ("h1", "h2"))
        assert served["estimate"] == reference.estimate(spec), (
            f"{function} diverged under plan {plan!r}"
        )
    single = AggregationSpec("single", ("h1",))
    assert (
        planner.estimate("web", "single", ("h1",))["estimate"]
        == reference.estimate(single)
    )
    assert (
        planner.jaccard("web", ("h1", "h2"))["estimate"]
        == jaccard_from_summary(reference.summary, ("h1", "h2"), "l")
    )
    # subpopulation selection is exact too
    subset = [0, 1, 100_000, 2]
    from repro.core.predicates import key_in

    assert (
        planner.estimate("web", "max", ("h1", "h2"), keys=subset)["estimate"]
        == reference.estimate(
            AggregationSpec("max", ("h1", "h2")), predicate=key_in(subset)
        )
    )


@settings(deadline=None, max_examples=25)
@given(
    n_buckets=st.integers(2, 4),
    per_bucket=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stored_only_view_matches_merged_engine(
    tmp_path_factory, n_buckets, per_bucket, seed
):
    """After every window rotated out, the service equals from_store."""
    root = tmp_path_factory.mktemp("svc")
    clock = Clock()
    manager = LiveWindowManager(SummaryStore(root), (NS,), clock=clock)
    rng = np.random.default_rng(seed)
    for bucket in range(n_buckets):
        keys = [bucket * 1000 + i for i in range(per_bucket)]
        w1 = rng.pareto(1.3, per_bucket) + 0.01
        manager.ingest("web", keys, {"h1": w1, "h2": w1 * 3.0})
        clock.now += 60.0
    manager.rotate()  # final window out; live view now empty
    served = QueryPlanner(manager).estimate("web", "max", ("h1", "h2"))
    offline = QueryEngine.from_store(manager.store, "web").estimate(
        AggregationSpec("max", ("h1", "h2"))
    )
    assert served["estimate"] == offline
    assert served["sources"]["live_events"] == 0
