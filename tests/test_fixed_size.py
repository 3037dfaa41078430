"""Tests for the fixed-distinct-keys summary variant (Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_fixed_size_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()


def build(dataset, k, seed, mode="colocated", budget=None):
    rng = np.random.default_rng(seed)
    draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
    return build_fixed_size_summary(
        dataset.weights, draw, k, dataset.assignments, FAMILY, mode=mode,
        budget=budget,
    )


class TestStructure:
    def test_budget_respected_and_ell_at_least_k(self):
        dataset = make_random_dataset(n_keys=120, seed=81)
        for seed in range(10):
            summary = build(dataset, 6, seed)
            assert summary.k >= 6
            assert summary.n_union <= 6 * dataset.n_assignments

    def test_union_at_least_paper_lower_bound(self):
        """Paper: the total number of distinct keys is at least |W|(k−1)+1
        when enough positive keys exist."""
        dataset = make_random_dataset(n_keys=200, seed=82, churn=0.0)
        m = dataset.n_assignments
        for seed in range(5):
            summary = build(dataset, 6, seed)
            assert summary.n_union >= m * (6 - 1) + 1

    def test_ell_grows_with_similarity(self):
        """Identical assignments share everything: ℓ ≈ budget."""
        base = make_random_dataset(n_keys=150, seed=83, churn=0.0)
        identical = type(base)(
            base.keys, base.assignments,
            np.tile(base.weights[:, :1], (1, base.n_assignments)),
        )
        summary = build(identical, 6, 0)
        assert summary.k >= 6 * identical.n_assignments - 2

    def test_custom_budget(self):
        dataset = make_random_dataset(n_keys=120, seed=84)
        summary = build(dataset, 4, 0, budget=30)
        assert summary.n_union <= 30


class TestEstimation:
    def test_colocated_single_unbiased(self):
        dataset = make_random_dataset(n_keys=25, seed=85)
        spec = AggregationSpec("single", ("w1",))
        exact = dataset.total("w1")
        runs = 3000
        total = 0.0
        for run in range(runs):
            summary = build(dataset, 4, run)
            total += QueryEngine(summary).estimate(spec, "colocated")
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_dispersed_max_unbiased(self):
        dataset = make_random_dataset(n_keys=25, seed=86)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        runs = 3000
        total = 0.0
        for run in range(runs):
            summary = build(dataset, 4, run, mode="dispersed")
            total += QueryEngine(summary).estimate(spec, "sset")
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_variance_not_worse_than_fixed_k(self):
        """The enlarged embedded samples can only help at equal budget."""
        from repro.core.summary import build_bottomk_summary

        dataset = make_random_dataset(n_keys=60, seed=87)
        spec = AggregationSpec("single", ("w1",))
        f = dataset.column("w1")
        fixed_err = 0.0
        adaptive_err = 0.0
        runs = 400
        for run in range(runs):
            rng = np.random.default_rng([run])
            draw = get_rank_method("shared_seed").draw(
                FAMILY, dataset.weights, rng
            )
            plain = build_bottomk_summary(
                dataset.weights, draw, 5, dataset.assignments, FAMILY
            )
            adaptive = build_fixed_size_summary(
                dataset.weights, draw, 5, dataset.assignments, FAMILY
            )
            fixed_err += QueryEngine(plain).adjusted(
                spec, "colocated"
            ).squared_error_sum(f)
            adaptive_err += QueryEngine(adaptive).adjusted(
                spec, "colocated"
            ).squared_error_sum(f)
        assert adaptive_err <= fixed_err * 1.05
