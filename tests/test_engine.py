"""Engine equivalence/property tests.

The engine's contract is exactness: vectorized hashing, batch ingestion,
sketch merging, and stream summarization must be *bit-identical* to the
reference single-pass / matrix-mode paths, for arbitrary inputs.  These
tests drive every path with hypothesis and assert full sketch equality
(keys, ranks, weights, seeds, ``kth_rank``, ``threshold``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ShardedSummarizer, merge_bottomk, merge_poisson
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher, hash_to_unit
from repro.sampling.bottomk import (
    BottomKStreamSampler,
    aggregate_stream,
    bottomk_from_ranks,
)
from repro.sampling.poisson import poisson_from_ranks

FAMILIES = {"ipps": IppsRanks(), "exp": ExponentialRanks()}

positive_weights = st.floats(min_value=1e-3, max_value=1e6)
weights_or_zero = st.one_of(st.just(0.0), positive_weights)
key_ints = st.integers(min_value=-(2**62), max_value=2**62)
family_names = st.sampled_from(["ipps", "exp"])


def assert_sketches_identical(a, b) -> None:
    assert a.k == b.k
    assert a.keys.tolist() == b.keys.tolist()
    np.testing.assert_array_equal(a.ranks, b.ranks)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.kth_rank == b.kth_rank
    assert a.threshold == b.threshold
    if a.seeds is not None and b.seeds is not None:
        np.testing.assert_array_equal(a.seeds, b.seeds)


class TestVectorizedHashing:
    @given(keys=st.lists(key_ints, min_size=0, max_size=200), salt=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_hash_array_matches_scalar_for_ints(self, keys, salt):
        hasher = KeyHasher(salt)
        expected = np.array([hash_to_unit(k, salt) for k in keys], dtype=float)
        actual = hasher.hash_array(np.array(keys, dtype=np.int64))
        np.testing.assert_array_equal(actual, expected)

    def test_hash_array_matches_scalar_for_other_dtypes(self):
        hasher = KeyHasher(17)
        cases = [
            np.array([0.0, -1.5, 3.25, 1e300]),
            np.array([True, False]),
            np.array(["flow-1", "flow-2", ""]),
            np.arange(5, dtype=np.uint64) + np.uint64(2**63),
            np.array([-1, 0, 1], dtype=np.int8),
        ]
        for arr in cases:
            expected = np.array(
                [hash_to_unit(k, 17) for k in arr.tolist()], dtype=float
            )
            np.testing.assert_array_equal(hasher.hash_array(arr), expected)

    def test_hash_array_tuple_keys(self):
        hasher = KeyHasher(3)
        keys = [("a", 1), ("a", 2), ("b", 1)]
        expected = np.array([hash_to_unit(k, 3) for k in keys])
        np.testing.assert_array_equal(hasher.hash_array(keys), expected)

    def test_mixed_type_batch_is_not_promoted(self):
        """np.asarray would fold [1, 'a'] to strings and [1, 2.5] to
        floats; batch hashing must keep the original key identities."""
        hasher = KeyHasher(7)
        for keys in ([1, "a"], [1, 2.5], [True, 2]):
            expected = np.array([hash_to_unit(k, 7) for k in keys])
            np.testing.assert_array_equal(hasher.hash_array(keys), expected)

    def test_integral_floats_hash_like_ints(self):
        """1.0 is the same dict/set key as 1, so it must hash the same —
        whether fed as a scalar, a float array, or a mixed list."""
        assert hash_to_unit(1.0, 5) == hash_to_unit(1, 5)
        assert hash_to_unit(-3.0, 5) == hash_to_unit(-3, 5)
        assert hash_to_unit(2.5, 5) != hash_to_unit(2, 5)
        hasher = KeyHasher(5)
        np.testing.assert_array_equal(
            hasher.hash_array(np.array([1.0, -3.0, 2.5])),
            np.array([hasher(1), hasher(-3), hasher(2.5)]),
        )

    def test_numpy_scalar_keys_hash_like_python_natives(self):
        """Object-array paths hand numpy scalars through unwidened; they
        must still name the same key as their Python counterparts."""
        assert hash_to_unit(np.int64(1), 7) == hash_to_unit(1, 7)
        assert hash_to_unit(np.uint64(2**63), 7) == hash_to_unit(2**63, 7)
        assert hash_to_unit(np.float64(2.5), 7) == hash_to_unit(2.5, 7)
        assert hash_to_unit(np.float64(3.0), 7) == hash_to_unit(3, 7)
        assert hash_to_unit(np.bool_(True), 7) == hash_to_unit(True, 7)
        # mixed batch containing a numpy scalar, through the object path
        hasher = KeyHasher(7)
        np.testing.assert_array_equal(
            hasher.hash_array([np.int64(1), "extra"]),
            np.array([hasher(1), hasher("extra")]),
        )

    def test_values_strictly_inside_unit_interval(self):
        values = KeyHasher(0).hash_array(np.arange(10_000))
        assert float(values.min()) > 0.0
        assert float(values.max()) < 1.0


class TestStreamMatrixEquivalence:
    """A stream sampler over an aggregated stream must equal matrix mode."""

    @given(
        weights=st.lists(weights_or_zero, min_size=1, max_size=80),
        k=st.integers(1, 12),
        salt=st.integers(0, 10_000),
        family=family_names,
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_matrix_column(self, weights, k, salt, family):
        fam = FAMILIES[family]
        hasher = KeyHasher(salt)
        weights = np.asarray(weights)
        n = len(weights)
        positions = np.arange(n)
        seeds = hasher.hash_array(positions)
        ranks = fam.ranks_array(weights, seeds)
        matrix_sketch = bottomk_from_ranks(ranks, weights, k, seeds)

        sampler = BottomKStreamSampler(k, fam, hasher)
        for pos in positions.tolist():
            sampler.process(pos, float(weights[pos]))
        stream_sketch = sampler.sketch()

        assert_sketches_identical(matrix_sketch, stream_sketch)


class TestBatchEqualsItemLoop:
    @given(
        weights=st.lists(weights_or_zero, min_size=1, max_size=120),
        k=st.integers(1, 10),
        salt=st.integers(0, 10_000),
        family=family_names,
        chunk=st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_process_batch_bit_identical(self, weights, k, salt, family, chunk):
        fam = FAMILIES[family]
        weights = np.asarray(weights)
        n = len(weights)
        keys = np.arange(n) * 7 - 3  # distinct, includes negatives

        by_item = BottomKStreamSampler(k, fam, KeyHasher(salt))
        for key, weight in zip(keys.tolist(), weights.tolist()):
            by_item.process(key, weight)

        by_batch = BottomKStreamSampler(k, fam, KeyHasher(salt))
        for lo in range(0, n, chunk):
            by_batch.process_batch(keys[lo : lo + chunk], weights[lo : lo + chunk])

        assert_sketches_identical(by_item.sketch(), by_batch.sketch())

    def test_mixed_type_batch_matches_item_loop(self):
        keys = ["a", 1, ("b", 2), 2.5, -7]
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        by_item = BottomKStreamSampler(3, IppsRanks(), KeyHasher(7))
        for key, weight in zip(keys, weights):
            by_item.process(key, float(weight))
        by_batch = BottomKStreamSampler(3, IppsRanks(), KeyHasher(7))
        by_batch.process_batch(keys, weights)
        assert_sketches_identical(by_item.sketch(), by_batch.sketch())

    def test_batch_rejects_duplicate_within_batch(self):
        sampler = BottomKStreamSampler(3, IppsRanks(), KeyHasher(0))
        with pytest.raises(ValueError, match="appears twice"):
            sampler.process_batch([1, 2, 1], np.ones(3))

    def test_batch_rejects_duplicate_across_calls(self):
        sampler = BottomKStreamSampler(3, IppsRanks(), KeyHasher(0))
        sampler.process(5, 1.0)
        with pytest.raises(ValueError, match="seen twice"):
            sampler.process_batch([9, 5], np.ones(2))

    def test_batch_marks_zero_weight_keys_as_seen(self):
        sampler = BottomKStreamSampler(3, IppsRanks(), KeyHasher(0))
        sampler.process_batch([1, 2], np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="seen twice"):
            sampler.process(1, 2.0)

    def test_batch_length_mismatch(self):
        sampler = BottomKStreamSampler(3, IppsRanks(), KeyHasher(0))
        with pytest.raises(ValueError, match="equal length"):
            sampler.process_batch([1, 2, 3], np.ones(2))

    def test_non_finite_weights_rejected_on_both_paths(self):
        """A NaN weight used to poison the per-item heap but be dropped by
        the batch path, silently breaking bit-parity."""
        for bad in (math.nan, math.inf):
            by_item = BottomKStreamSampler(2, IppsRanks(), KeyHasher(0))
            with pytest.raises(ValueError, match="non-finite weight"):
                by_item.process("b", bad)
            by_batch = BottomKStreamSampler(2, IppsRanks(), KeyHasher(0))
            with pytest.raises(ValueError, match="non-finite weight"):
                by_batch.process_batch(["a", "b"], np.array([1.0, bad]))

    def test_nan_keys_rejected_on_both_paths(self):
        """NaN never equals itself, so it would slip through every
        duplicate-key guard and corrupt the one-entry-per-key invariant."""
        by_item = BottomKStreamSampler(2, IppsRanks(), KeyHasher(0))
        with pytest.raises(ValueError, match="NaN key"):
            by_item.process(math.nan, 1.0)
        by_batch = BottomKStreamSampler(2, IppsRanks(), KeyHasher(0))
        with pytest.raises(ValueError, match="NaN key"):
            by_batch.process_batch(np.array([1.0, math.nan]), np.ones(2))
        with pytest.raises(ValueError, match="NaN key"):
            by_batch.process_batch([math.nan, "mixed"], np.ones(2))


class TestMergeBottomK:
    @given(
        weights=st.lists(weights_or_zero, min_size=1, max_size=100),
        k=st.integers(1, 10),
        salt=st.integers(0, 10_000),
        family=family_names,
        labels=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_unpartitioned_sketch(self, weights, k, salt, family,
                                               labels):
        """Exactness over arbitrary partitions of a rank column."""
        fam = FAMILIES[family]
        weights = np.asarray(weights)
        n = len(weights)
        n_parts = labels.draw(st.integers(1, min(5, n)))
        part_of = np.asarray(
            labels.draw(
                st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n)
            )
        )
        seeds = KeyHasher(salt).hash_array(np.arange(n))
        ranks = fam.ranks_array(weights, seeds)
        full = bottomk_from_ranks(ranks, weights, k, seeds)
        parts = []
        for p in range(n_parts):
            mask = part_of == p
            parts.append(
                bottomk_from_ranks(
                    np.where(mask, ranks, math.inf),
                    np.where(mask, weights, 0.0),
                    k,
                    seeds,
                )
            )
        merged = merge_bottomk(*parts)
        assert_sketches_identical(full, merged)

    def test_threshold_when_one_part_dominates(self):
        """Merged r_{k+1} can be a part's threshold sentinel: the merged
        sample comes entirely from part A, and the union's third-smallest
        rank is A's own (k+1)-st, known only as A.threshold."""
        ranks = np.array([0.01, 0.02, 0.03, 0.5, 0.9])
        weights = np.ones(5)
        in_a = np.array([True, True, True, False, False])
        a = bottomk_from_ranks(
            np.where(in_a, ranks, np.inf), np.where(in_a, weights, 0.0), k=2
        )
        b = bottomk_from_ranks(
            np.where(~in_a, ranks, np.inf), np.where(~in_a, weights, 0.0), k=2
        )
        assert a.threshold == pytest.approx(0.03)
        merged = merge_bottomk(a, b)
        assert merged.keys.tolist() == [0, 1]
        assert merged.kth_rank == pytest.approx(0.02)
        assert merged.threshold == pytest.approx(0.03)

    def test_merge_is_associative_and_matches_stream(self):
        rng = np.random.default_rng(5)
        keys = np.arange(300)
        weights = rng.pareto(1.3, 300) + 0.01
        hasher = KeyHasher(9)
        single = BottomKStreamSampler(16, IppsRanks(), hasher)
        single.process_batch(keys, weights)
        parts = []
        for lo in range(0, 300, 100):
            sampler = BottomKStreamSampler(16, IppsRanks(), hasher)
            sampler.process_batch(keys[lo : lo + 100], weights[lo : lo + 100])
            parts.append(sampler.sketch())
        left_first = merge_bottomk(merge_bottomk(parts[0], parts[1]), parts[2])
        right_first = merge_bottomk(parts[0], merge_bottomk(parts[1], parts[2]))
        assert_sketches_identical(single.sketch(), left_first)
        assert_sketches_identical(left_first, right_first)

    def test_merge_method_on_sketch(self):
        a = bottomk_from_ranks(np.array([0.1]), np.ones(1), k=2)
        b = bottomk_from_ranks(np.array([np.inf, 0.2]), np.array([0.0, 1.0]), k=2)
        merged = a.merge(b)
        assert merged.keys.tolist() == [0, 1]
        assert merged.kth_rank == pytest.approx(0.2)
        assert merged.threshold == math.inf

    def test_rejects_duplicate_keys(self):
        a = bottomk_from_ranks(np.array([0.1, 0.2]), np.ones(2), k=2)
        with pytest.raises(ValueError, match="more than one sketch"):
            merge_bottomk(a, a)

    def test_rejects_mismatched_k(self):
        a = bottomk_from_ranks(np.array([0.1]), np.ones(1), k=2)
        b = bottomk_from_ranks(np.array([0.2]), np.ones(1), k=3)
        with pytest.raises(ValueError, match="sketch sizes differ"):
            merge_bottomk(a, b)

    def test_merge_of_empty_sketches(self):
        first = bottomk_from_ranks(np.array([np.inf]), np.zeros(1), k=3)
        second = bottomk_from_ranks(np.full(2, np.inf), np.zeros(2), k=3)
        merged = merge_bottomk(first, second)
        assert len(merged) == 0
        assert merged.kth_rank == math.inf
        assert merged.threshold == math.inf

    def test_merge_requires_at_least_one(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_bottomk()


class TestMergePoisson:
    def test_merge_equals_unpartitioned_sketch(self):
        rng = np.random.default_rng(2)
        n = 120
        weights = rng.pareto(1.4, n) + 0.02
        seeds = KeyHasher(4).hash_array(np.arange(n))
        ranks = IppsRanks().ranks_array(weights, seeds)
        tau = 0.05
        full = poisson_from_ranks(ranks, weights, tau, seeds)
        mask = rng.random(n) < 0.5
        part_a = poisson_from_ranks(
            np.where(mask, ranks, np.inf), np.where(mask, weights, 0.0), tau, seeds
        )
        part_b = poisson_from_ranks(
            np.where(~mask, ranks, np.inf), np.where(~mask, weights, 0.0), tau, seeds
        )
        merged = merge_poisson(part_a, part_b)
        assert merged.tau == full.tau
        assert merged.keys.tolist() == full.keys.tolist()
        np.testing.assert_array_equal(merged.ranks, full.ranks)
        np.testing.assert_array_equal(merged.weights, full.weights)
        np.testing.assert_array_equal(merged.seeds, full.seeds)

    def test_rejects_mismatched_tau(self):
        a = poisson_from_ranks(np.array([0.01]), np.ones(1), 0.5)
        b = poisson_from_ranks(np.array([0.02]), np.ones(1), 0.6)
        with pytest.raises(ValueError, match="thresholds differ"):
            merge_poisson(a, b)

    def test_rejects_duplicate_keys(self):
        a = poisson_from_ranks(np.array([0.01]), np.ones(1), 0.5)
        with pytest.raises(ValueError, match="more than one sketch"):
            a.merge(a)


class TestShardedSummarizer:
    @given(
        items=st.lists(
            st.tuples(st.integers(0, 300), positive_weights),
            min_size=1,
            max_size=250,
        ),
        k=st.integers(1, 12),
        salt=st.integers(0, 10_000),
        family=family_names,
        chunk=st.integers(1, 60),
    )
    @settings(max_examples=50, deadline=None)
    def test_sharded_equals_single_sampler(self, items, k, salt, family,
                                           chunk):
        """Batching and event order are invisible in the output."""
        fam = FAMILIES[family]
        totals = aggregate_stream(items)
        single = BottomKStreamSampler(k, fam, KeyHasher(salt))
        for key, total in totals.items():
            single.process(key, total)

        engine = ShardedSummarizer(
            k, ["a"], family=fam, hasher=KeyHasher(salt)
        )
        for lo in range(0, len(items), chunk):
            batch = items[lo : lo + chunk]
            engine.ingest(
                "a",
                np.array([key for key, _ in batch], dtype=np.int64),
                np.array([weight for _, weight in batch]),
            )
        assert_sketches_identical(single.sketch(), engine.sketches()["a"])

    @given(
        items=st.lists(
            st.tuples(st.integers(0, 300), positive_weights),
            min_size=1,
            max_size=250,
        ),
        k=st.integers(1, 12),
        n_writers=st.integers(1, 5),
        salt=st.integers(0, 10_000),
        family=family_names,
    )
    @settings(max_examples=30, deadline=None)
    def test_key_disjoint_writers_merge_to_one_summarizer(
        self, tmp_path_factory, items, k, n_writers, salt, family
    ):
        """How the keys are split over writers is invisible in the output:
        summarizers over key-disjoint shares of a stream, coordinated by
        the hasher salt alone, merge — through ``merge_bottomk`` and
        through a ``SummaryStore`` — to one summarizer over all of it."""
        from repro.store import SummaryStore

        def summarize(mine):
            engine = ShardedSummarizer(
                k, ["x", "y"], family=FAMILIES[family], hasher=KeyHasher(salt)
            )
            for name, events in (("x", items), ("y", items[::2])):
                events = [event for event in events if mine(event[0])]
                engine.ingest(
                    name,
                    np.array([key for key, _ in events], dtype=np.int64),
                    np.array([weight for _, weight in events]),
                )
            return engine.sketch_bundle()

        whole = summarize(lambda key: True)
        parts = [
            summarize(lambda key, writer=writer: key % n_writers == writer)
            for writer in range(n_writers)
        ]
        for name, sketch in whole.sketches.items():
            assert_sketches_identical(
                merge_bottomk(*(part.sketches[name] for part in parts)), sketch
            )
        store = SummaryStore(tmp_path_factory.mktemp("writers"))
        for writer, part in enumerate(parts):
            store.write("web", "20260728T1201", part, part=f"writer-{writer}")
        assert store.merged_bundle("web").equals(whole)
        assert store.merged_bundle("web").summary().equals(whole.summary())

    def test_ingest_stream_matches_ingest(self):
        items = [("flow-1", 2.0), ("flow-2", 1.0), ("flow-1", 3.5)]
        a = ShardedSummarizer(2, ["w"])
        a.ingest_stream("w", items)
        b = ShardedSummarizer(2, ["w"])
        b.ingest("w", [key for key, _ in items],
                 np.array([weight for _, weight in items]))
        assert_sketches_identical(a.sketches()["w"], b.sketches()["w"])

    def test_tuple_keys_supported(self):
        engine = ShardedSummarizer(2, ["w"])
        engine.ingest_stream(
            "w", [(("10.0.0.1", 80), 5.0), (("10.0.0.2", 443), 1.0)]
        )
        sketch = engine.sketches()["w"]
        assert set(sketch.keys.tolist()) == {("10.0.0.1", 80), ("10.0.0.2", 443)}

    def test_summary_feeds_dispersed_estimators(self):
        from repro.core.aggregates import AggregationSpec
        from repro.estimators.dispersed import dispersed_estimator

        rng = np.random.default_rng(3)
        keys = np.arange(150)
        w1 = rng.pareto(1.5, 150) + 0.1
        w2 = rng.pareto(1.5, 150) + 0.1
        engine = ShardedSummarizer(150, ["w1", "w2"])
        engine.ingest("w1", keys, w1)
        engine.ingest("w2", keys, w2)
        summary = engine.summary()
        # k covers every key, so the estimate is exact
        spec = AggregationSpec("max", ("w1", "w2"))
        estimate = dispersed_estimator(summary, spec).total()
        assert estimate == pytest.approx(float(np.maximum(w1, w2).sum()))

    def test_int_and_float_batches_name_the_same_keys(self):
        """The same logical key may arrive as int in one batch and float in
        another; it must aggregate to one key."""
        a = ShardedSummarizer(4, ["h"], hasher=KeyHasher(1))
        a.ingest("h", np.array([1, 2, 3]), np.array([5.0, 1.0, 9.0]))
        a.ingest("h", np.array([1.0, 4.0]), np.array([3.0, 2.0]))
        b = ShardedSummarizer(4, ["h"], hasher=KeyHasher(1))
        b.ingest("h", np.array([1, 2, 3, 1, 4]),
                 np.array([5.0, 1.0, 9.0, 3.0, 2.0]))
        sketch_a, sketch_b = a.sketches()["h"], b.sketches()["h"]
        assert sketch_a.keys.tolist() == sketch_b.keys.tolist()
        np.testing.assert_array_equal(sketch_a.ranks, sketch_b.ranks)
        np.testing.assert_array_equal(sketch_a.weights, sketch_b.weights)

    def test_single_shard_ingest_copies_caller_buffers(self):
        """A caller may refill one preallocated batch buffer between
        ingest calls; buffered chunks must not alias it."""
        reused_keys = np.empty(3, dtype=np.int64)
        reused_weights = np.empty(3)
        batches = [([1, 2, 3], [1.0, 2.0, 3.0]), ([4, 5, 6], [4.0, 5.0, 6.0])]
        a = ShardedSummarizer(8, ["h"], hasher=KeyHasher(1))
        for batch_keys, batch_weights in batches:
            reused_keys[:] = batch_keys
            reused_weights[:] = batch_weights
            a.ingest("h", reused_keys, reused_weights)
        b = ShardedSummarizer(8, ["h"], hasher=KeyHasher(1))
        for batch_keys, batch_weights in batches:
            b.ingest("h", np.array(batch_keys), np.array(batch_weights))
        assert_sketches_identical(a.sketches()["h"], b.sketches()["h"])

    @pytest.mark.parametrize("removed", ["n_shards", "partition_salt"])
    def test_in_process_sharding_options_are_gone(self, removed):
        with pytest.raises(TypeError, match=removed):
            ShardedSummarizer(2, ["a"], **{removed: 1})

    def test_rejects_unknown_assignment(self):
        engine = ShardedSummarizer(2, ["a"])
        with pytest.raises(ValueError, match="unknown assignment"):
            engine.ingest("b", [1], np.ones(1))

    def test_rejects_negative_weights(self):
        engine = ShardedSummarizer(2, ["a"])
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.ingest("a", [1, 2], np.array([1.0, -0.5]))

    def test_rejects_nan_weights(self):
        engine = ShardedSummarizer(2, ["a"])
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.ingest("a", [1, 2], np.array([1.0, math.nan]))

    def test_rejects_nan_keys(self):
        engine = ShardedSummarizer(2, ["a"])
        with pytest.raises(ValueError, match="NaN key"):
            engine.ingest("a", np.array([1.0, math.nan]), np.ones(2))

    def test_empty_assignment_yields_empty_sketch(self):
        engine = ShardedSummarizer(3, ["a", "b"])
        engine.ingest("a", [1, 2], np.array([1.0, 2.0]))
        sketches = engine.sketches()
        assert len(sketches["b"]) == 0
        assert sketches["b"].threshold == math.inf
        summary = engine.summary()
        assert summary.n_union == 2

    @pytest.mark.parametrize(
        "keys",
        [["a\0", "a"], [2**63, 2**63 + 1, 5]],
        ids=["trailing-nul", "straddles-2**63"],
    )
    def test_keys_numpy_would_merge_stay_distinct(self, keys):
        """``np.asarray`` drops a trailing NUL and rounds an int list that
        straddles 2**63 to float64; the summarizer must do neither — not
        at ingest, not when a later fold re-ranks the keys, not across a
        checkpoint."""
        weights = [float(2**i) for i in range(len(keys))]
        engine = ShardedSummarizer(8, ["x"], hasher=KeyHasher(3))
        engine.ingest("x", keys, weights)
        engine.summary()  # fold, so the second batch lands on a table
        engine.ingest("x", keys, weights)
        engine = ShardedSummarizer.from_checkpoint(engine.checkpoint_state())
        sketch = engine.sketches()["x"]
        assert dict(zip(sketch.keys.tolist(), sketch.weights.tolist())) == {
            key: 2 * weight for key, weight in zip(keys, weights)
        }
        single = BottomKStreamSampler(8, IppsRanks(), KeyHasher(3))
        for key, weight in zip(keys, weights):
            single.process(key, 2 * weight)
        assert_sketches_identical(sketch, single.sketch())
