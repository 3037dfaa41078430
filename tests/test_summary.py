"""Tests for summary construction and its information model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.summary import (
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler
from repro.sampling.poisson import calibrate_tau

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()


def make_summary(mode="colocated", method="shared_seed", k=5, seed=0,
                 dataset=None):
    dataset = dataset or make_random_dataset(seed=3)
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(FAMILY, dataset.weights, rng)
    summary = build_bottomk_summary(
        dataset.weights, draw, k, dataset.assignments, FAMILY, mode=mode
    )
    return dataset, draw, summary


class TestBottomKSummary:
    def test_union_contains_every_sketch_member(self):
        dataset, draw, summary = make_summary()
        for b in range(dataset.n_assignments):
            column = draw.ranks[:, b]
            finite = np.isfinite(column)
            order = np.argsort(column)[: summary.k]
            for pos in order:
                if finite[pos]:
                    assert pos in summary.positions

    def test_member_matrix_matches_rank_order(self):
        dataset, draw, summary = make_summary()
        for row, pos in enumerate(summary.positions):
            for b in range(dataset.n_assignments):
                column = draw.ranks[:, b]
                in_bottom_k = (
                    math.isfinite(column[pos])
                    and (column < column[pos]).sum() < summary.k
                )
                assert summary.member[row, b] == in_bottom_k

    def test_thresholds_are_rank_k_excluding(self):
        """θ[i, b] must equal the k-th smallest rank of I \\ {i} under b."""
        dataset, draw, summary = make_summary(k=4)
        for row, pos in enumerate(summary.positions):
            for b in range(dataset.n_assignments):
                others = np.delete(draw.ranks[:, b], pos)
                others = others[np.isfinite(others)]
                expected = (
                    np.sort(others)[summary.k - 1]
                    if len(others) >= summary.k
                    else math.inf
                )
                assert summary.thresholds[row, b] == pytest.approx(expected)

    def test_colocated_mode_stores_full_vectors(self):
        dataset, _, summary = make_summary(mode="colocated")
        np.testing.assert_array_equal(
            summary.weights, dataset.weights[summary.positions]
        )

    def test_dispersed_mode_masks_unsampled_weights(self):
        dataset, _, summary = make_summary(mode="dispersed")
        nan_mask = np.isnan(summary.weights)
        np.testing.assert_array_equal(nan_mask, ~summary.member)
        known = summary.weights[summary.member]
        expected = dataset.weights[summary.positions][summary.member]
        np.testing.assert_array_equal(known, expected)

    def test_shared_seed_summary_carries_one_seed_per_key(self):
        _, draw, summary = make_summary(method="shared_seed")
        assert summary.seeds.ndim == 1
        np.testing.assert_array_equal(summary.seeds, draw.seeds[summary.positions])

    def test_independent_summary_carries_seed_matrix(self):
        _, draw, summary = make_summary(method="independent")
        assert summary.seeds.ndim == 2

    def test_independent_differences_has_no_seeds(self):
        from repro.ranks.families import ExponentialRanks

        dataset = make_random_dataset(seed=3)
        rng = np.random.default_rng(0)
        family = ExponentialRanks()
        draw = get_rank_method("independent_differences").draw(
            family, dataset.weights, rng
        )
        summary = build_bottomk_summary(
            dataset.weights, draw, 5, dataset.assignments, family
        )
        assert summary.seeds is None

    def test_sharing_index_bounds(self):
        dataset, _, summary = make_summary(k=3)
        m = dataset.n_assignments
        assert 1.0 / m <= summary.sharing_index() <= 1.0

    def test_coordinated_sharing_never_above_independent_on_average(self):
        dataset = make_random_dataset(n_keys=60, seed=9)
        coord, indep = 0.0, 0.0
        for run in range(30):
            _, _, s_c = make_summary("colocated", "shared_seed", 8, run, dataset)
            _, _, s_i = make_summary("colocated", "independent", 8, run, dataset)
            coord += s_c.sharing_index()
            indep += s_i.sharing_index()
        assert coord < indep

    def test_mode_validation(self):
        dataset = make_random_dataset()
        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        with pytest.raises(ValueError, match="colocated"):
            build_bottomk_summary(
                dataset.weights, draw, 3, dataset.assignments, FAMILY,
                mode="hybrid",
            )

    def test_columns_lookup(self):
        _, _, summary = make_summary()
        assert summary.columns(["w2"]) == [1]
        assert summary.columns(None) == [0, 1, 2]

    def test_repr(self):
        _, _, summary = make_summary()
        assert "bottomk" in repr(summary)


class TestPoissonSummary:
    def test_membership_by_tau(self):
        dataset = make_random_dataset(seed=4)
        rng = np.random.default_rng(1)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        taus = np.array(
            [
                calibrate_tau(dataset.weights[:, b], FAMILY, 5.0)
                for b in range(dataset.n_assignments)
            ]
        )
        summary = build_poisson_summary(
            dataset.weights, draw, taus, dataset.assignments, FAMILY,
            expected_size=5,
        )
        assert summary.kind == "poisson"
        for row, pos in enumerate(summary.positions):
            for b in range(dataset.n_assignments):
                assert summary.member[row, b] == (draw.ranks[pos, b] < taus[b])
        # thresholds are the fixed taus
        np.testing.assert_allclose(
            summary.thresholds, np.broadcast_to(taus, summary.thresholds.shape)
        )

    def test_sharing_index_without_expected_size(self):
        """Regression: Poisson summaries default to k=0; sharing_index used
        to raise ZeroDivisionError for them."""
        dataset = make_random_dataset(seed=4)
        rng = np.random.default_rng(1)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        taus = np.array(
            [
                calibrate_tau(dataset.weights[:, b], FAMILY, 5.0)
                for b in range(dataset.n_assignments)
            ]
        )
        summary = build_poisson_summary(
            dataset.weights, draw, taus, dataset.assignments, FAMILY
        )
        assert summary.k == 0
        index = summary.sharing_index()  # must not raise
        assert math.isfinite(index)
        # falls back to |S| / total realized memberships
        assert index == pytest.approx(
            summary.n_union / summary.member.sum()
        )
        assert 1.0 / dataset.n_assignments - 1e-12 <= index <= 1.0

    def test_sharing_index_empty_summary_is_nan(self):
        weights = np.zeros((4, 2))
        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, weights, rng)
        summary = build_poisson_summary(
            weights, draw, np.array([0.5, 0.5]), ["a", "b"], FAMILY
        )
        assert math.isnan(summary.sharing_index())


class TestSummaryFromSketches:
    def build(self, k=6, seed=0):
        rng = np.random.default_rng(seed)
        keys = [f"key{i}" for i in range(80)]
        w1 = dict(zip(keys, rng.pareto(1.3, 80) + 0.05))
        w2 = dict(zip(keys, rng.pareto(1.3, 80) + 0.05))
        hasher = KeyHasher(31)
        sketches = {}
        for name, weights in [("p1", w1), ("p2", w2)]:
            sampler = BottomKStreamSampler(k, FAMILY, hasher)
            sampler.process_stream(weights.items())
            sketches[name] = sampler.sketch()
        return sketches, (w1, w2)

    def test_assembles_dispersed_summary(self):
        sketches, _ = self.build()
        summary = build_summary_from_sketches(sketches, FAMILY)
        assert summary.mode == "dispersed"
        assert summary.assignments == ["p1", "p2"]
        assert summary.keys is not None
        assert summary.n_union == len(summary.keys)
        assert summary.member.sum() == len(sketches["p1"]) + len(sketches["p2"])

    def test_estimation_works_end_to_end(self):
        """Stream sketches -> summary -> max estimator, no original data."""
        from repro.core.aggregates import AggregationSpec
        from repro.engine.queries import QueryEngine

        sketches, (w1, w2) = self.build(k=20)
        summary = build_summary_from_sketches(sketches, FAMILY)
        adjusted = QueryEngine(summary).adjusted(
            AggregationSpec("max", ("p1", "p2")), "sset"
        )
        exact = sum(max(w1[key], w2[key]) for key in w1)
        assert adjusted.total() == pytest.approx(exact, rel=0.5)

    def test_rejects_mismatched_k(self):
        sketches, _ = self.build()
        sampler = BottomKStreamSampler(3, FAMILY, KeyHasher(31))
        sampler.process("x", 1.0)
        sketches["p3"] = sampler.sketch()
        with pytest.raises(ValueError, match="sketch sizes differ"):
            build_summary_from_sketches(sketches, FAMILY)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            build_summary_from_sketches({}, FAMILY)

    def test_shared_seeds_recovered(self):
        sketches, _ = self.build()
        summary = build_summary_from_sketches(sketches, FAMILY)
        hasher = KeyHasher(31)
        for row, key in enumerate(summary.keys):
            if not np.isnan(summary.seeds[row]):
                assert summary.seeds[row] == pytest.approx(hasher(key))
