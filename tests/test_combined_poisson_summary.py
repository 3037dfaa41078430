"""Tests for combined-sample utilities and Poisson-summary estimators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_poisson_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks
from repro.sampling.bottomk import bottomk_from_ranks
from repro.sampling.combined import fixed_size_bottomk, union_positions
from repro.sampling.poisson import calibrate_tau

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()
W1 = AggregationSpec("single", ("w1",))


class TestUnionPositions:
    def test_distinct_sorted(self):
        a = bottomk_from_ranks(np.array([0.1, 0.2, 0.3]), np.ones(3), 2)
        b = bottomk_from_ranks(np.array([0.3, 0.1, 0.2]), np.ones(3), 2)
        union = union_positions([a, b])
        assert union.tolist() == [0, 1, 2]

    def test_empty(self):
        assert union_positions([]).tolist() == []


class TestMaxWeightSketch:
    def test_lemma_42_structure(self):
        """The derived sketch is the bottom-k of (min ranks, max weights)
        and its keys all live in the union of the per-assignment sketches."""
        dataset = make_random_dataset(n_keys=50, seed=71)
        method = get_rank_method("shared_seed")
        rng = np.random.default_rng(1)
        draw = method.draw(FAMILY, dataset.weights, rng)
        k = 6
        derived = bottomk_from_ranks(
            draw.ranks.min(axis=1), dataset.weights.max(axis=1), k
        )
        per_assignment = [
            bottomk_from_ranks(draw.ranks[:, b], dataset.weights[:, b], k)
            for b in range(dataset.n_assignments)
        ]
        union = set(union_positions(per_assignment).tolist())
        assert set(derived.keys.tolist()) <= union
        # weights attached are the max weights
        expected = dataset.weights.max(axis=1)[derived.keys]
        np.testing.assert_allclose(derived.weights, expected)

    def test_min_rank_is_valid_rank_for_max_weight(self):
        """Lemma 4.1: r^min(i) ~ f_{w^max(i)} for consistent ranks —
        the CDF-transformed values must be uniform."""
        dataset = make_random_dataset(n_keys=400, seed=72, churn=0.0)
        method = get_rank_method("shared_seed")
        rng = np.random.default_rng(2)
        draw = method.draw(FAMILY, dataset.weights, rng)
        min_ranks = draw.ranks.min(axis=1)
        w_max = dataset.weights.max(axis=1)
        u = FAMILY.cdf_matrix(w_max, min_ranks)
        assert abs(u.mean() - 0.5) < 0.05
        assert abs(u.std() - math.sqrt(1 / 12)) < 0.05


class TestFixedSizeBottomK:
    def test_ell_at_least_k_and_budget_respected(self):
        dataset = make_random_dataset(n_keys=80, seed=73)
        rng = np.random.default_rng(3)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        k = 5
        ell, sketches = fixed_size_bottomk(draw.ranks, dataset.weights, k)
        assert ell >= k
        budget = k * dataset.n_assignments
        assert len(union_positions(sketches)) <= budget
        # ℓ is maximal: ℓ+1 would overflow (unless every key is sampled)
        bigger = [
            bottomk_from_ranks(draw.ranks[:, b], dataset.weights[:, b], ell + 1)
            for b in range(dataset.n_assignments)
        ]
        if len(union_positions(bigger)) <= budget:
            positive = (dataset.weights > 0).any(axis=1).sum()
            assert ell + 1 >= positive

    def test_coordination_grows_ell(self):
        """Coordinated sketches share keys, so a fixed budget affords a
        larger ℓ than independent sketches on similar assignments."""
        weights = np.tile(
            np.random.default_rng(4).pareto(1.2, 120)[:, None] + 0.05, (1, 3)
        )
        coord_draw = get_rank_method("shared_seed").draw(
            FAMILY, weights, np.random.default_rng(5)
        )
        ind_draw = get_rank_method("independent").draw(
            FAMILY, weights, np.random.default_rng(5)
        )
        ell_coord, _ = fixed_size_bottomk(coord_draw.ranks, weights, 8)
        ell_ind, _ = fixed_size_bottomk(ind_draw.ranks, weights, 8)
        assert ell_coord > ell_ind

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            fixed_size_bottomk(np.ones((4, 2)), np.ones((4, 2)), 3, budget=2)


class TestPoissonSummaryEstimators:
    def make_summary(self, dataset, method="shared_seed", seed=0, size=5.0):
        rng = np.random.default_rng(seed)
        draw = get_rank_method(method).draw(FAMILY, dataset.weights, rng)
        taus = np.array(
            [
                calibrate_tau(dataset.weights[:, b], FAMILY, size)
                for b in range(dataset.n_assignments)
            ]
        )
        return build_poisson_summary(
            dataset.weights, draw, taus, dataset.assignments, FAMILY,
            expected_size=int(size),
        )

    def test_ht_unbiased(self):
        dataset = make_random_dataset(n_keys=20, seed=74)
        exact = dataset.total("w1")
        total = 0.0
        runs = 3000
        for run in range(runs):
            summary = self.make_summary(dataset, seed=run)
            total += QueryEngine(summary).estimate(W1, "ht")
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_inclusive_over_poisson_unbiased(self):
        """The colocated inclusive estimator also runs on Poisson summaries
        (same template with τ thresholds)."""
        dataset = make_random_dataset(n_keys=20, seed=75)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        from repro.core.aggregates import key_values

        exact = float(key_values(dataset, spec).sum())
        total = 0.0
        runs = 3000
        for run in range(runs):
            summary = self.make_summary(dataset, seed=run)
            total += QueryEngine(summary).estimate(spec, "colocated")
        assert total / runs == pytest.approx(exact, rel=0.12)

    def test_ht_requires_poisson(self):
        dataset = make_random_dataset(seed=76)
        from repro.core.summary import build_bottomk_summary

        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        summary = build_bottomk_summary(
            dataset.weights, draw, 4, dataset.assignments, FAMILY
        )
        with pytest.raises(ValueError, match="Poisson"):
            QueryEngine(summary).adjusted(W1, "ht")
