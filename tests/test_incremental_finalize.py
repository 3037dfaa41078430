"""Incremental finalization: folding is invisible in the output.

A :class:`ShardedSummarizer` folds only the events that arrived since its
last finalization into per-assignment aggregated tables.  The contract pinned
here: *when* it folds — after every batch, never, across a checkpoint →
resume, in how many row-bounded steps — changes nothing.  The sketches are
``BottomKSketch.equals`` (bit for bit) to a one-shot summarizer fed the
same events and to one ``BottomKStreamSampler`` over ``aggregate_stream``.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ShardedSummarizer
from repro.engine import sharded as sharded_module
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler, aggregate_stream
from repro.store.codec import decode, encode

FAMILIES = {"ipps": IppsRanks(), "exp": ExponentialRanks()}
NAMES = ["h1", "h2"]

# Zero weights are legal (recorded, never sampled); positive ones stay in
# a range where u/w cannot overflow to an inf rank shared by several keys.
weights = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6))

KEY_KINDS = {
    "int": lambda ids: np.array(ids, dtype=np.int64),
    "float": lambda ids: np.array(ids, dtype=float) + 0.5,
    # ids a float64 cannot hold: any promotion on the way corrupts them
    "uint64": lambda ids: np.array(ids, dtype=np.uint64) + np.uint64(2**63),
    "str": lambda ids: [f"key-{i}" for i in ids],
}


def _mixed(ids, flavour):
    """One batch of a mixed-dtype stream: the same logical key arrives as
    int, as integral float, inside an object batch — and beside strings."""
    if flavour == 0:
        return np.array(ids, dtype=np.int64)
    if flavour == 1:
        return np.array(ids, dtype=float)  # integral floats == the ints
    if flavour == 2:
        return [f"key-{i}" if i % 3 == 0 else i for i in ids] + [("t", 1)]
    return np.array(ids, dtype=float) / 2.0  # halves: ints and x.5


@st.composite
def batches(draw, kind):
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30))
    if kind == "mixed":
        keys = _mixed(ids, draw(st.integers(0, 3)))
    else:
        keys = KEY_KINDS[kind](ids)
    n = len(keys)
    names = draw(st.sampled_from([["h1"], ["h2"], NAMES]))
    return keys, {
        name: np.array(draw(st.lists(weights, min_size=n, max_size=n)))
        for name in names
    }


@st.composite
def scripts(draw):
    """Ingest batches interleaved with finalizations and resumes."""
    kind = draw(st.sampled_from([*KEY_KINDS, "mixed"]))
    steps = []
    for _ in range(draw(st.integers(1, 7))):
        steps.append(("ingest", draw(batches(kind))))
        extra = draw(st.sampled_from(["none", "none", "summary", "resume"]))
        if extra != "none":
            steps.append((extra, None))
    return steps


@contextlib.contextmanager
def patched(name, value):
    """Set a module constant of ``repro.engine.sharded`` for a block."""
    saved = getattr(sharded_module, name)
    setattr(sharded_module, name, value)
    try:
        yield
    finally:
        setattr(sharded_module, name, saved)


def fold_rows(limit):
    """Fold at most ``limit`` pending rows (one chunk at least) a step."""
    return patched("_FOLD_ROWS", limit)


#: the delta share at which folds always merge into the base, never do,
#: or do as shipped
DELTA_SHARES = {
    "always": 0.0, "never": math.inf, "default": sharded_module._DELTA_SHARE,
}


def delta_share(merge):
    """Merge a table's delta into its base ``always``, ``never`` or as
    by ``default``."""
    return patched("_DELTA_SHARE", DELTA_SHARES[merge])


def feed(engine, keys, by_name):
    """One batch through ``ingest`` (one assignment) or ``ingest_multi``."""
    if len(by_name) == 1:
        ((name, batch_weights),) = by_name.items()
        engine.ingest(name, keys, batch_weights)
    else:
        engine.ingest_multi(keys, by_name)


def stream_reference(events, k, family, salt):
    """One sampler per assignment over the aggregated stream so far."""
    out = {}
    for name in NAMES:
        sampler = BottomKStreamSampler(k, family, KeyHasher(salt))
        totals = aggregate_stream(events[name])
        if totals:
            keys = np.empty(len(totals), dtype=object)
            for pos, key in enumerate(totals):
                keys[pos] = key
            sampler.process_batch(
                keys, np.fromiter(totals.values(), dtype=float)
            )
        out[name] = sampler.sketch()
    return out


def assert_equal_sketches(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].equals(want[name]), name


class TestInterleavings:
    @given(
        script=scripts(),
        k=st.integers(1, 6),
        family=st.sampled_from(sorted(FAMILIES)),
        salt=st.integers(0, 2**32),
        step_rows=st.sampled_from([1, 40, sharded_module._FOLD_ROWS]),
        merge=st.sampled_from(sorted(DELTA_SHARES)),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_equals_one_shot(
        self, script, k, family, salt, step_rows, merge
    ):
        with fold_rows(step_rows), delta_share(merge):
            self.check_interleaving(script, k, FAMILIES[family], salt)

    def check_interleaving(self, script, k, fam, salt):

        def fresh():
            return ShardedSummarizer(
                k, NAMES, family=fam, hasher=KeyHasher(salt)
            )

        folding, one_shot = fresh(), fresh()
        events = {name: [] for name in NAMES}
        for step, batch in script:
            if step == "ingest":
                keys, by_name = batch
                feed(folding, keys, by_name)
                feed(one_shot, keys, by_name)
                listed = keys.tolist() if isinstance(keys, np.ndarray) else keys
                for name, batch_weights in by_name.items():
                    events[name].extend(zip(listed, batch_weights.tolist()))
            elif step == "summary":
                folding.summary()
                assert_equal_sketches(
                    folding.sketches(), stream_reference(events, k, fam, salt)
                )
            else:
                rows = folding.buffered_events
                folding = ShardedSummarizer.from_checkpoint(
                    decode(encode(folding.checkpoint_state()))
                )
                assert folding.buffered_events == rows
        final = folding.sketches()
        assert_equal_sketches(final, one_shot.sketches())
        assert_equal_sketches(final, stream_reference(events, k, fam, salt))
        assert folding.summary().equals(one_shot.summary())


def summarizer(k=2):
    return ShardedSummarizer(k, ["a"], hasher=KeyHasher(3))


def one_shot_sketch(batches_, **kwargs):
    engine = summarizer(**kwargs)
    for keys, batch_weights in batches_:
        engine.ingest("a", keys, batch_weights)
    return engine.sketches()["a"]


def folded_sketch(batches_, **kwargs):
    engine = summarizer(**kwargs)
    for keys, batch_weights in batches_:
        engine.ingest("a", keys, batch_weights)
        engine.summary()
    return engine.sketches()["a"]


class TestEntryMovement:
    """The moves of the stored k+1 entries, one at a time."""

    keys = np.arange(12)

    def ranked(self, batch_weights):
        """Keys of a one-shot k=12 sketch: every positive key, by rank."""
        return one_shot_sketch([(self.keys, batch_weights)], k=12).keys.tolist()

    def test_key_grows_from_outside_the_sample_into_it(self):
        base = np.ones(12)
        last = self.ranked(base)[-1]  # far outside the stored k+1 = 3
        grow = (np.array([last]), np.array([1e9]))
        script = [(self.keys, base), grow]
        got = folded_sketch(script)
        assert last in got
        assert got.equals(one_shot_sketch(script))

    def test_threshold_key_is_carried_and_promoted(self):
        """The (k+1)-th entry sets the threshold while untouched — other
        keys overtaking it can only push it out, ranks never grow — and
        joins the sample, counted once, when its own total grows."""
        base = np.ones(12)
        order = self.ranked(base)
        threshold_key, outsider = order[2], order[5]
        script = [(self.keys, base)]
        assert folded_sketch(script).threshold == one_shot_sketch(
            script, k=3
        ).ranks[2]
        promoted = script + [(np.array([threshold_key]), np.array([1e9]))]
        got = folded_sketch(promoted)
        assert got.keys.tolist()[0] == threshold_key
        assert got.equals(one_shot_sketch(promoted))
        displaced = script + [(np.array([outsider]), np.array([1e9]))]
        got = folded_sketch(displaced)
        assert threshold_key not in got
        assert got.equals(one_shot_sketch(displaced))

    def test_fewer_than_k_keys_and_zero_totals(self):
        script = [
            (np.array([1, 2, 3]), np.array([0.0, 2.0, 0.0])),
            (np.array([3, 4]), np.array([0.0, 0.0])),
            (np.array([1]), np.array([5.0])),  # a zero total turns positive
        ]
        got = folded_sketch(script, k=8)
        assert sorted(got.keys.tolist()) == [1, 2]
        assert got.threshold == np.inf and got.kth_rank == np.inf
        assert got.equals(one_shot_sketch(script, k=8))

    def test_numeric_table_turns_generic_once(self):
        script = [
            (np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])),
            (np.array([2.0, 2.5]), np.array([1.0, 1.0])),
            (["x", 3], np.array([4.0, 1.0])),
        ]
        got = folded_sketch(script, k=3)
        assert got.equals(one_shot_sketch(script, k=3))
        state = summarizer(k=3)
        for keys, batch_weights in script:
            state.ingest("a", keys, batch_weights)
            state.summary()
        table = state._shards["a"].state
        assert table.keys is None
        assert table.totals == {1: 1.0, 2: 3.0, 3: 4.0, 2.5: 1.0, "x": 4.0}


class _OneSeed(KeyHasher):
    """Every key hashes to the same seed: equal weights tie in rank."""

    def hash_array(self, keys):
        return np.full(len(keys), 0.5)


class TestRankTies:
    @given(order=st.permutations(list(range(10))), cut=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_ties_break_by_key_not_by_arrival(self, order, cut):
        engine = ShardedSummarizer(3, ["a"], hasher=_OneSeed(0))
        keys = np.array(order)
        engine.ingest("a", keys[:cut], np.ones(cut))
        engine.summary()
        engine.ingest("a", keys[cut:], np.ones(10 - cut))
        sketch = engine.sketches()["a"]
        assert sketch.keys.tolist() == [0, 1, 2]
        assert sketch.kth_rank == sketch.threshold == 0.5


class TestCrossTypeTies:
    """A ``str`` and its UTF-8 ``bytes`` hash alike (so do tuples that
    differ only so): at equal weight they tie on rank *and* seed.  Both
    samplers break the tie by ``tie_order`` (``str`` before ``bytes``),
    whatever the arrival order and batch boundaries."""

    #: keys that hash alike, each group listed in ``tie_order``
    GROUPS = {
        "empty": ["", b""],
        "a": ["a", b"a"],
        "tuples": [("a", "a"), ("a", b"a"), (b"a", "a"), (b"a", b"a")],
    }

    @staticmethod
    def sampler(k, batches, per_item=False):
        sampler = BottomKStreamSampler(k, IppsRanks(), KeyHasher(0))
        for batch in batches:
            if per_item:
                for key in batch:
                    sampler.process(key, 2.0)
            elif batch:
                sampler.process_batch(batch, np.full(len(batch), 2.0))
        return sampler

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_every_arrival_order_keeps_the_same_keys(self, group):
        keys = self.GROUPS[group]
        for k in range(1, len(keys)):
            reference = None
            for order in itertools.permutations(keys):
                order = list(order)
                for cut in range(len(order) + 1):
                    batches = [order[:cut], order[cut:]]
                    for per_item in (False, True):
                        sketch = self.sampler(k, batches, per_item).sketch()
                        assert sketch.keys.tolist() == keys[:k]
                        if reference is None:
                            reference = sketch
                        assert sketch.equals(reference)
                    engine = ShardedSummarizer(k, ["h"], hasher=KeyHasher(0))
                    for batch in batches:
                        if batch:
                            engine.ingest("h", batch, np.full(len(batch), 2.0))
                            engine.summary()
                    assert engine.sketches()["h"].equals(reference)

    def test_a_tied_summarizer_survives_checkpoint_and_codec(self):
        engine = ShardedSummarizer(1, ["h"], hasher=KeyHasher(0))
        engine.ingest("h", ["a", "zz", b"a"], np.full(3, 2.0))
        first = self.sampler(1, [["a", "zz", b"a"]]).sketch()
        assert engine.sketches()["h"].equals(first)  # folded into a table
        state = engine.checkpoint_state()
        restored = ShardedSummarizer.from_checkpoint(decode(encode(state)))
        assert restored.sketches()["h"].equals(first)
        assert encode(restored.checkpoint_state()) == encode(state)
        restored.ingest("h", [b"", ""], np.full(2, 2.0))
        again = self.sampler(1, [["a", "zz", b"a"], [b"", ""]])
        assert restored.sketches()["h"].equals(again.sketch())


class TestBaseAndDelta:
    """A numeric table is a sorted base plus a sorted delta of the keys
    touched since their last merge; a small fold writes only a delta."""

    def test_a_small_fold_leaves_the_base_alone(self):
        rng = np.random.default_rng(12)
        engine = ShardedSummarizer(64, NAMES, hasher=KeyHasher(2))
        window = rng.permutation(100_000)
        engine.ingest_multi(
            window, {n: rng.pareto(1.3, len(window)) for n in NAMES}
        )
        engine.summary()
        before = {name: engine._shards[name].state for name in NAMES}
        batch = rng.integers(0, 120_000, 400)
        engine.ingest_multi(batch, {n: rng.pareto(1.3, 400) for n in NAMES})
        engine.summary()
        for name in NAMES:
            state = engine._shards[name].state
            assert state.keys is before[name].keys
            assert state.totals is before[name].totals
            assert np.isin(state.delta_keys, batch).all()
            assert len(state.delta_keys) <= len(np.unique(batch))
            assert len(state) == len(np.union1d(window, batch))

    @pytest.mark.parametrize("merge", sorted(DELTA_SHARES))
    def test_buffered_events_is_exact_whether_folds_merge_or_not(
        self, merge
    ):
        rng = np.random.default_rng(13)
        engine = ShardedSummarizer(4, NAMES, hasher=KeyHasher(1))
        distinct = {name: set() for name in NAMES}
        with delta_share(merge):
            for step in range(12):
                keys = rng.integers(0, 50 + 40 * step, 60)
                names = NAMES if step % 3 else ["h1"]
                held = engine.buffered_events
                engine.ingest_multi(
                    keys, {n: rng.pareto(1.3, 60) for n in names}
                )
                assert engine.buffered_events == held + 60 * len(names)
                engine.summary()
                for name in names:
                    distinct[name].update(keys.tolist())
                assert engine.buffered_events == sum(
                    len(seen) for seen in distinct.values()
                )


@st.composite
def multi_scripts(draw):
    """``(n assignments, steps, step at which a0 turns generic or None)``;
    a step is ``(key ids, assignment indices, the index whose weights are
    half zero or None, finalize after it)``."""
    n = draw(st.integers(1, 4))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=40))
        if n > 1 and draw(st.integers(0, 3)) == 0:  # one assignment alone
            chosen = [draw(st.integers(0, n - 1))]
        else:
            chosen = list(range(n))
        zero = draw(st.sampled_from([None, *chosen]))
        steps.append((ids, chosen, zero, draw(st.booleans())))
    generic_at = draw(st.one_of(st.none(), st.integers(0, len(steps) - 1)))
    return n, steps, generic_at


def assert_same_engines(got, want):
    assert_equal_sketches(got.sketches(), want.sketches())
    assert encode(got.sketch_bundle()) == encode(want.sketch_bundle())
    assert got.buffered_events == want.buffered_events


def shared_key_arrays(engine, names):
    """Do the tables of ``names`` share their key arrays (one group)?"""
    states = [engine._shards[name].state for name in names]
    return all(
        getattr(state, attr) is getattr(states[0], attr)
        for state in states
        for attr in ("keys", "delta_keys", "delta_at")
    )


class _RanksFailOnce(IppsRanks):
    """IPPS ranks whose ``fail_at``-th ``ranks_array`` call from now
    raises, once (``0``: never)."""

    fail_at = 0

    def ranks_array(self, weights, seeds):
        if self.fail_at:
            self.fail_at -= 1
            if not self.fail_at:
                raise RuntimeError("boom")
        return super().ranks_array(weights, seeds)


class TestGroupFold:
    """The assignments of an ``ingest_multi`` batch fold as one group: one
    key side (unique, lookups, seeds, key layout), each assignment its own
    sums, ranks and entries.  Per-assignment ``ingest`` calls copy the keys
    per call, so a summarizer fed that way never groups: it is the
    reference."""

    @given(
        script=multi_scripts(),
        seed=st.integers(0, 2**32 - 1),
        merge=st.sampled_from(sorted(DELTA_SHARES)),
        step_rows=st.sampled_from([30, sharded_module._FOLD_ROWS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ingest_multi_equals_per_assignment_ingest(
        self, script, seed, merge, step_rows
    ):
        n, steps, generic_at = script
        names = [f"a{i}" for i in range(n)]
        rng = np.random.default_rng(seed)
        grouped, alone = (
            ShardedSummarizer(4, names, hasher=KeyHasher(5)) for _ in range(2)
        )
        with fold_rows(step_rows), delta_share(merge):
            for at, (ids, chosen, zero, finalize) in enumerate(steps):
                if at == generic_at:
                    words = [f"key-{i}" for i in ids]
                    word_weights = rng.pareto(1.3, len(ids))
                    for engine in (grouped, alone):
                        engine.ingest(names[0], words, word_weights)
                keys = np.array(ids, dtype=np.int64)
                by_name = {}
                for index in chosen:
                    batch_weights = rng.pareto(1.3, len(keys))
                    if index == zero:  # some keys total zero
                        batch_weights[::2] = 0.0
                    by_name[names[index]] = batch_weights
                grouped.ingest_multi(keys, by_name)
                for name, batch_weights in by_name.items():
                    alone.ingest(name, keys, batch_weights)
                if finalize:
                    assert_same_engines(grouped, alone)
            assert_same_engines(grouped, alone)

    def test_a_group_keeps_one_key_column_across_merges(self):
        rng = np.random.default_rng(21)
        names = ["a0", "a1", "a2", "a3"]
        engine = ShardedSummarizer(16, names, hasher=KeyHasher(4))
        merges, base = 0, None
        for step in range(12):
            keys = rng.integers(0, 3_000 + 400 * step, 500)
            engine.ingest_multi(keys, {n: rng.pareto(1.3, 500) for n in names})
            engine.summary()
            assert shared_key_arrays(engine, names)
            state = engine._shards["a0"].state
            merges += base is not None and state.keys is not base
            base = state.keys
        assert merges >= 2

    def test_a_fold_that_raises_mid_group_keeps_the_folded_ones(self):
        """The third of four assignments fails: the first two keep their
        fold, the last two their pending chunks, and the next summary
        equals an uninterrupted run's."""
        rng = np.random.default_rng(22)
        names = ["a0", "a1", "a2", "a3"]
        engine = ShardedSummarizer(
            8, names, family=_RanksFailOnce(), hasher=KeyHasher(6)
        )
        reference = ShardedSummarizer(8, names, hasher=KeyHasher(6))
        for size in (2_000, 300):
            keys = rng.integers(0, 1_500, size)
            by_name = {n: rng.pareto(1.3, size) for n in names}
            for each in (engine, reference):
                each.ingest_multi(keys, by_name)
            if size == 2_000:  # the failing fold lands on a table
                engine.summary()
        engine.family.fail_at = 3
        with pytest.raises(RuntimeError, match="boom"):
            engine.summary()
        assert [bool(engine._shards[n].pending) for n in names] == [
            False, False, True, True
        ]
        assert engine.buffered_events == sum(
            len(engine._shards[n].state)
            + sum(len(chunk[0]) for chunk in engine._shards[n].pending)
            for n in names
        )
        assert_equal_sketches(engine.sketches(), reference.sketches())
        assert engine.buffered_events == reference.buffered_events
        assert shared_key_arrays(engine, names[:2])
        assert shared_key_arrays(engine, names[2:])


class TestGroupSurvivesCheckpoints:
    """A checkpoint merges each group's deltas once and keeps the merged
    keys shared; a resume re-shares equal key chunks, so neither splits a
    group for the rest of the window."""

    def test_flush_and_resume_keep_the_group(self):
        rng = np.random.default_rng(31)
        names = ["a0", "a1", "a2"]
        engine, uninterrupted = (
            ShardedSummarizer(16, names, hasher=KeyHasher(8)) for _ in range(2)
        )

        def feed_all(engines, size, span):
            keys = rng.integers(0, span, size)
            by_name = {n: rng.pareto(1.3, size) for n in names}
            for each in engines:
                each.ingest_multi(keys, by_name)
                each.summary()

        feed_all([engine, uninterrupted], 5_000, 4_000)
        feed_all([engine, uninterrupted], 300, 4_500)
        assert len(engine._shards["a0"].state.delta_keys)  # a delta to merge
        wire = encode(engine.checkpoint_state())  # a flush: the engine goes on
        resumed = ShardedSummarizer.from_checkpoint(decode(wire))
        for span in (5_000, 5_500):  # a resumed table's first fold merges
            feed_all([engine, resumed, uninterrupted], 100, span)
        for each in (engine, resumed):
            assert shared_key_arrays(each, names)
            assert len(each._shards["a0"].state.delta_keys)
            assert_same_engines(each, uninterrupted)
            assert encode(each.checkpoint_state()) == encode(
                uninterrupted.checkpoint_state()
            )


class TestSnapshotIsolation:
    """checkpoint_state() shares arrays; a later fold must not reach them."""

    @pytest.mark.parametrize("kind", ["int", "str"])
    @pytest.mark.parametrize("later_ids", [60, 120], ids=["known", "fresh"])
    @pytest.mark.parametrize("merge", ["always", "never"])
    def test_snapshot_restores_the_earlier_summary(
        self, kind, later_ids, merge
    ):
        """Take a snapshot of a folded window — its delta merged into
        the base, or not — ingest more (totals of known keys only, or
        fresh keys too), finalize, and restore."""
        make = KEY_KINDS[kind]
        rng = np.random.default_rng(4)
        engine = ShardedSummarizer(8, NAMES, hasher=KeyHasher(9))
        first = make(list(range(60)) + rng.integers(0, 60, 140).tolist())
        with delta_share(merge):
            engine.ingest_multi(first, {n: rng.pareto(1.3, 200) for n in NAMES})
            engine.summary()
            touch = make(rng.integers(50, 70, 20).tolist())
            engine.ingest_multi(touch, {n: rng.pareto(1.3, 20) for n in NAMES})
            earlier = engine.summary()  # the snapshot holds a table
            state = engine._shards["h1"].state
            if kind == "int":
                assert bool(len(state.delta_keys)) == (merge == "never")
            snapshot = engine.checkpoint_state()
            wire = encode(snapshot)
            second = make(rng.integers(0, later_ids, 300).tolist())
            engine.ingest_multi(
                second, {n: rng.pareto(1.3, 300) for n in NAMES}
            )
            later = engine.summary()
        assert not later.equals(earlier)
        assert encode(snapshot) == wire
        assert snapshot.restore().summary().equals(earlier)


class _FailsOnce(KeyHasher):
    """Raises on the first hash after being armed — mid-fold, after the
    pending events were aggregated."""

    armed = False

    def hash_array(self, keys):
        if self.armed:
            self.armed = False
            raise RuntimeError("boom")
        return super().hash_array(keys)


class TestFailedFoldIsRetrySafe:
    """A fold that raises leaves the table as it was, pending included."""

    @pytest.mark.parametrize("kind", ["int", "str", "mixed"])
    def test_retry_after_a_failing_fold_counts_nothing_twice(self, kind):
        make = KEY_KINDS.get(kind, lambda ids: _mixed(ids, 2))
        rng = np.random.default_rng(6)
        first = (make(rng.integers(0, 30, 80).tolist()), rng.pareto(1.3, 80))
        second = (make(rng.integers(0, 50, 80).tolist()), rng.pareto(1.3, 80))
        if kind == "mixed":  # _mixed appends one tuple key
            first = (first[0], np.append(first[1], 1.0))
            second = (second[0], np.append(second[1], 1.0))
        hasher = _FailsOnce(3)
        engine = ShardedSummarizer(4, ["a"], hasher=hasher)
        engine.ingest("a", *first)
        engine.summary()  # the failing fold below lands on a table
        engine.ingest("a", *second)
        rows = engine.buffered_events
        hasher.armed = True
        with pytest.raises(RuntimeError, match="boom"):
            engine.summary()
        assert engine.buffered_events == rows  # nothing landed
        got = engine.sketches()["a"]
        assert got.equals(one_shot_sketch([first, second], k=4))

    def test_failure_in_a_later_step_keeps_the_steps_before_it(self):
        """A large backlog folds in row-bounded steps; a step that raises
        leaves the ones before it folded and counted, itself pending."""
        rng = np.random.default_rng(8)
        chunks = [
            (rng.integers(0, 40, 20), rng.pareto(1.3, 20)) for _ in range(5)
        ]
        hasher = _FailsOnce(3)
        engine = ShardedSummarizer(4, ["a"], hasher=hasher)
        for chunk in chunks:
            engine.ingest("a", *chunk)
        calls = []

        def third_call_fails(keys):
            calls.append(len(keys))
            hasher.armed = len(calls) == 3
            return _FailsOnce.hash_array(hasher, keys)

        hasher.hash_array = third_call_fails
        with fold_rows(25), pytest.raises(RuntimeError, match="boom"):
            engine.summary()
        shard = engine._shards["a"]
        assert [len(chunk[0]) for chunk in shard.pending] == [20, 20, 20]
        assert engine.buffered_events == len(shard.state) + 60
        with fold_rows(25):
            got = engine.sketches()["a"]
        assert len(calls) == 6  # two steps, the failed one, three more
        assert engine.buffered_events == len(shard.state)
        assert got.equals(one_shot_sketch(chunks, k=4))


class TestBufferedEvents:
    @pytest.mark.parametrize("kind", ["int", "str"])
    def test_rows_held_across_fold_and_resume(self, kind):
        make = KEY_KINDS[kind]
        engine = ShardedSummarizer(4, NAMES, hasher=KeyHasher(1))
        keys = make([1, 2, 2, 3, 3, 3])
        engine.ingest_multi(keys, {n: np.ones(6) for n in NAMES})
        assert engine.buffered_events == 12  # raw events, both assignments
        engine.summary()
        assert engine.buffered_events == 6  # 3 distinct keys each
        engine.ingest("h1", make([3, 4]), np.ones(2))
        assert engine.buffered_events == 8  # + 2 pending events
        state = engine.checkpoint_state()
        assert state.buffered_events == 8
        resumed = decode(encode(state)).restore()
        assert resumed.buffered_events == 8
        for each in (engine, resumed):
            each.summary()
            assert each.buffered_events == 7  # h1 gained key 4
        assert ShardedSummarizer(4, NAMES).buffered_events == 0
