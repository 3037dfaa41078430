"""Tests for bottom-k^(b) summaries (different sizes per assignment)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()
SIZES = [3, 7, 5]


def build(dataset, seed, mode="colocated"):
    rng = np.random.default_rng(seed)
    draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
    return build_bottomk_summary(
        dataset.weights, draw, SIZES, dataset.assignments, FAMILY, mode=mode
    )


class TestStructure:
    def test_per_assignment_sizes(self):
        dataset = make_random_dataset(n_keys=60, seed=61, churn=0.0)
        summary = build(dataset, 0)
        for b, size in enumerate(SIZES):
            assert int(summary.member[:, b].sum()) == size

    def test_size_count_mismatch_rejected(self):
        dataset = make_random_dataset(seed=61)
        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        with pytest.raises(ValueError, match="one k per assignment"):
            build_bottomk_summary(
                dataset.weights, draw, [3, 7], dataset.assignments, FAMILY
            )

    def test_summary_k_reports_maximum(self):
        dataset = make_random_dataset(n_keys=60, seed=61)
        assert build(dataset, 0).k == max(SIZES)


class TestEstimation:
    def test_colocated_single_unbiased(self):
        dataset = make_random_dataset(n_keys=25, seed=62)
        spec = AggregationSpec("single", ("w2",))
        exact = dataset.total("w2")
        runs = 3000
        total = 0.0
        for run in range(runs):
            total += QueryEngine(build(dataset, run)).estimate(
                spec, "colocated"
            )
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_dispersed_max_unbiased(self):
        dataset = make_random_dataset(n_keys=25, seed=63)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        runs = 3000
        total = 0.0
        for run in range(runs):
            summary = build(dataset, run, mode="dispersed")
            total += QueryEngine(summary).estimate(spec, "sset")
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_plain_rc_per_assignment_unbiased(self):
        dataset = make_random_dataset(n_keys=25, seed=64)
        runs = 3000
        totals = {b: 0.0 for b in dataset.assignments}
        for run in range(runs):
            engine = QueryEngine(build(dataset, run))
            for b in dataset.assignments:
                totals[b] += engine.estimate(
                    AggregationSpec("single", (b,)), "plain_rc"
                )
        for b in dataset.assignments:
            assert totals[b] / runs == pytest.approx(dataset.total(b), rel=0.12)
