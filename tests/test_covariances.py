"""Empirical check of Conjecture 8.1: adjusted weights have zero covariances.

The paper conjectures that all its RC estimators satisfy
``E[a(i)a(j)] = f(i)f(j)`` for i ≠ j, which makes ΣV the variance of any
subpopulation estimate.  We estimate the covariance matrix over many draws
on a small dataset and check all off-diagonal entries vanish within
standard error, for the main estimator families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()
RUNS = 4000


def adjusted_matrix(dataset, spec, estimator, method, mode, k=4, seed=0):
    """(runs, n_keys) matrix of dense adjusted weights."""
    n = dataset.n_keys
    out = np.zeros((RUNS, n))
    meth = get_rank_method(method)
    for run in range(RUNS):
        rng = np.random.default_rng([seed, run])
        draw = meth.draw(FAMILY, dataset.weights, rng)
        summary = build_bottomk_summary(
            dataset.weights, draw, k, dataset.assignments, FAMILY, mode=mode
        )
        out[run] = QueryEngine(summary).adjusted(spec, estimator).dense(n)
    return out


def max_standardized_covariance(samples: np.ndarray, f_values: np.ndarray):
    """Largest |covariance| / SE over off-diagonal key pairs."""
    runs, n = samples.shape
    centered = samples - f_values[None, :]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if f_values[i] == 0.0 or f_values[j] == 0.0:
                continue
            products = centered[:, i] * centered[:, j]
            mean = products.mean()
            se = products.std() / np.sqrt(runs)
            if se == 0.0:
                continue
            worst = max(worst, abs(mean) / se)
    return worst


class TestConjecture81:
    @pytest.mark.parametrize("method", ["shared_seed", "independent"])
    def test_colocated_inclusive_covariances_vanish(self, method):
        dataset = make_random_dataset(n_keys=8, seed=71)
        spec = AggregationSpec("single", ("w1",))
        samples = adjusted_matrix(
            dataset, spec, "colocated", method, "colocated",
        )
        worst = max_standardized_covariance(samples, dataset.column("w1"))
        # ~28 pairs tested; 4.5 SE keeps false-positive probability tiny.
        assert worst < 4.5

    def test_dispersed_max_covariances_vanish(self):
        dataset = make_random_dataset(n_keys=8, seed=72)
        names = tuple(dataset.assignments)
        samples = adjusted_matrix(
            dataset, AggregationSpec("max", names), "sset", "shared_seed",
            "dispersed",
        )
        worst = max_standardized_covariance(
            samples, dataset.weights.max(axis=1)
        )
        assert worst < 4.5

    def test_dispersed_min_covariances_vanish(self):
        dataset = make_random_dataset(n_keys=8, seed=73, churn=0.0)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("min", names)
        samples = adjusted_matrix(
            dataset, spec, "lset", "shared_seed", "dispersed",
        )
        worst = max_standardized_covariance(
            samples, dataset.weights.min(axis=1)
        )
        assert worst < 4.5

    def test_subpopulation_variance_equals_sum_of_per_key(self):
        """With zero covariances, VAR[a(J)] = Σ_{i∈J} VAR[a(i)]."""
        dataset = make_random_dataset(n_keys=8, seed=74)
        spec = AggregationSpec("single", ("w1",))
        samples = adjusted_matrix(
            dataset, spec, "colocated", "shared_seed", "colocated",
        )
        f = dataset.column("w1")
        subset = np.array([0, 2, 5])
        sub_estimates = samples[:, subset].sum(axis=1)
        var_subset = ((sub_estimates - f[subset].sum()) ** 2).mean()
        per_key = ((samples[:, subset] - f[subset]) ** 2).mean(axis=0).sum()
        assert var_subset == pytest.approx(per_key, rel=0.25)
