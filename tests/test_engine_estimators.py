"""End-to-end estimation on engine-built summaries.

The `ShardedSummarizer` never sees a dense weight matrix, yet with a shared
hasher its hash-coordinated ranks are the *same* ranks the matrix-mode
harness draws via `SharedSeedRanks.draw_hashed`.  Estimates computed from
the two summaries must therefore agree to numerical precision — and both
must land near the exact aggregates at a reasonable k.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, exact_aggregate, jaccard_similarity
from repro.core.summary import build_bottomk_summary
from repro.engine import QueryEngine, ShardedSummarizer, jaccard_from_summary
from repro.ranks.assignments import SharedSeedRanks
from repro.ranks.families import IppsRanks
from repro.ranks.hashing import KeyHasher

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()
K = 100
SALT = 21


@pytest.fixture(scope="module")
def pipeline():
    """One dataset summarized both ways from the same hash-coordinated ranks."""
    dataset = make_random_dataset(n_keys=220, n_assignments=3, seed=12,
                                  churn=0.25)
    hasher = KeyHasher(SALT)

    engine = ShardedSummarizer(
        K, dataset.assignments, family=FAMILY, hasher=hasher
    )
    rng = np.random.default_rng(99)
    for b, name in enumerate(dataset.assignments):
        # Emit an unaggregated event stream: each key's weight arrives as
        # two exact halves (0.5·w + 0.5·w == w in IEEE arithmetic, so the
        # aggregated totals match the matrix weights bit-for-bit), shuffled
        # and chopped into irregular batches.
        keys, weights = [], []
        for pos, key in enumerate(dataset.keys):
            weight = dataset.weights[pos, b]
            if weight > 0.0:
                keys += [key, key]
                weights += [0.5 * weight, 0.5 * weight]
        order = rng.permutation(len(keys))
        keys = [keys[i] for i in order]
        weights = np.asarray(weights)[order]
        for lo in range(0, len(keys), 37):
            engine.ingest(name, keys[lo : lo + 37], weights[lo : lo + 37])
    engine_summary = engine.summary()

    draw = SharedSeedRanks().draw_hashed(
        FAMILY, dataset.weights, dataset.keys, hasher
    )
    matrix_dispersed = build_bottomk_summary(
        dataset.weights, draw, K, dataset.assignments, FAMILY, mode="dispersed"
    )
    matrix_colocated = build_bottomk_summary(
        dataset.weights, draw, K, dataset.assignments, FAMILY, mode="colocated"
    )
    return dataset, engine_summary, matrix_dispersed, matrix_colocated


class TestEngineVsMatrixHarness:
    """Same ranks ⇒ same estimates, down to numerical precision."""

    def test_same_union_keys_and_thresholds(self, pipeline):
        dataset, engine_summary, matrix_summary, _ = pipeline
        engine_keys = set(engine_summary.keys)
        matrix_keys = {dataset.keys[pos] for pos in matrix_summary.positions}
        assert engine_keys == matrix_keys
        np.testing.assert_allclose(
            np.sort(engine_summary.rank_kplus1),
            np.sort(matrix_summary.rank_kplus1),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("variant", ["s", "l"])
    def test_l1_totals_agree(self, pipeline, variant):
        _, engine_summary, matrix_summary, _ = pipeline
        spec = AggregationSpec("l1", tuple(engine_summary.assignments))
        estimator = f"l1-{variant}"
        from_engine = QueryEngine(engine_summary).estimate(spec, estimator)
        from_matrix = QueryEngine(matrix_summary).estimate(spec, estimator)
        assert from_engine == pytest.approx(from_matrix, rel=1e-9)

    @pytest.mark.parametrize("function", ["max", "min"])
    @pytest.mark.parametrize("estimator", ["sset", "lset"])
    def test_minmax_totals_agree(self, pipeline, function, estimator):
        _, engine_summary, matrix_summary, _ = pipeline
        spec = AggregationSpec(function, tuple(engine_summary.assignments))
        from_engine = QueryEngine(engine_summary).estimate(spec, estimator)
        from_matrix = QueryEngine(matrix_summary).estimate(spec, estimator)
        assert from_engine == pytest.approx(from_matrix, rel=1e-9)

    @pytest.mark.parametrize("variant", ["s", "l"])
    def test_jaccard_agrees(self, pipeline, variant):
        _, engine_summary, matrix_summary, _ = pipeline
        pair = tuple(engine_summary.assignments[:2])
        from_engine = jaccard_from_summary(engine_summary, pair, variant)
        from_matrix = jaccard_from_summary(matrix_summary, pair, variant)
        assert from_engine == pytest.approx(from_matrix, rel=1e-9)


class TestEngineVsExact:
    """Engine estimates converge on the exact aggregates (k = 100 of 220)."""

    @pytest.mark.parametrize("function", ["max", "min", "l1"])
    def test_dispersed_estimates_near_exact(self, pipeline, function):
        dataset, engine_summary, _, _ = pipeline
        names = tuple(dataset.assignments)
        spec = AggregationSpec(function, names)
        exact = exact_aggregate(dataset, spec)
        estimator = "l1-l" if function == "l1" else "lset"
        estimate = QueryEngine(engine_summary).estimate(spec, estimator)
        assert estimate == pytest.approx(exact, rel=0.35)

    def test_jaccard_near_exact(self, pipeline):
        dataset, engine_summary, _, _ = pipeline
        a, b = dataset.assignments[:2]
        exact = jaccard_similarity(dataset, a, b)
        estimate = jaccard_from_summary(engine_summary, (a, b))
        assert estimate == pytest.approx(exact, abs=0.15)

    def test_colocated_harness_agrees_with_engine(self, pipeline):
        """The colocated RC estimator (full weight vectors, different
        algorithm) and the engine's dispersed path bracket the same L1."""
        dataset, engine_summary, _, matrix_colocated = pipeline
        names = tuple(dataset.assignments)
        spec = AggregationSpec("l1", names)
        exact = exact_aggregate(dataset, spec)
        colocated = QueryEngine(matrix_colocated).estimate(spec, "colocated")
        dispersed = QueryEngine(engine_summary).estimate(spec, "l1-l")
        assert colocated == pytest.approx(exact, rel=0.35)
        assert dispersed == pytest.approx(colocated, rel=0.6)
