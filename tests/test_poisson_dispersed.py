"""Dispersed s-set/l-set estimators over Poisson summaries.

Section 4: "The treatment of Poisson sketches is similar and simpler" —
the same template estimators apply with the fixed τ^(b) substituted for
r^(b)_k(I∖{i}).  Our summaries encode the conditioning threshold
uniformly, so the dispersed estimators run unchanged; these tests verify
unbiasedness of min/max/L1 on Poisson summaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_poisson_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks
from repro.sampling.poisson import calibrate_tau

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()


def poisson_summary(dataset, method, seed, expected_size=5.0):
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(FAMILY, dataset.weights, rng)
    taus = np.array(
        [
            calibrate_tau(dataset.weights[:, b], FAMILY, expected_size)
            for b in range(dataset.n_assignments)
        ]
    )
    return build_poisson_summary(
        dataset.weights, draw, taus, dataset.assignments, FAMILY,
        mode="dispersed", expected_size=int(expected_size),
    )


def mean_total(dataset, spec, estimator, method="shared_seed", runs=3000):
    total = 0.0
    for run in range(runs):
        summary = poisson_summary(dataset, method, run)
        total += QueryEngine(summary).estimate(spec, estimator)
    return total / runs


class TestPoissonDispersed:
    def test_max_unbiased(self):
        dataset = make_random_dataset(n_keys=20, seed=91)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, "sset")
        assert mean == pytest.approx(exact, rel=0.12)

    @pytest.mark.parametrize("variant", ["s", "l"])
    def test_min_unbiased(self, variant):
        dataset = make_random_dataset(n_keys=20, seed=92)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("min", names)
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, f"{variant}set")
        assert mean == pytest.approx(exact, rel=0.15)

    def test_l1_unbiased_and_nonnegative(self):
        dataset = make_random_dataset(n_keys=20, seed=93)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        total = 0.0
        runs = 3000
        for run in range(runs):
            summary = poisson_summary(dataset, "shared_seed", run)
            adjusted = QueryEngine(summary).adjusted(spec, "l1-l")
            assert np.all(adjusted.values >= -1e-9)
            total += adjusted.total()
        assert total / runs == pytest.approx(exact, rel=0.15)

    def test_independent_min_unbiased(self):
        dataset = make_random_dataset(n_keys=15, n_assignments=2, seed=94,
                                      churn=0.0)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        total = 0.0
        runs = 6000
        for run in range(runs):
            summary = poisson_summary(dataset, "independent", run,
                                      expected_size=8.0)
            total += QueryEngine(summary).estimate(spec, "lset")
        assert total / runs == pytest.approx(exact, rel=0.2)

    def test_thresholds_do_not_depend_on_membership(self):
        """Unlike bottom-k, Poisson thresholds are the same for members and
        non-members: τ is fixed."""
        dataset = make_random_dataset(seed=95)
        summary = poisson_summary(dataset, "shared_seed", 0)
        for b in range(dataset.n_assignments):
            column = summary.thresholds[:, b]
            assert np.all(column == column[0])
