"""Tests for the colocated inclusive estimators (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.estimators.colocated import inclusion_probabilities
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks, IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()
W1 = AggregationSpec("single", ("w1",))


def summary_for(dataset, method="shared_seed", k=5, seed=0, family=FAMILY,
                mode="colocated"):
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(family, dataset.weights, rng)
    return build_bottomk_summary(
        dataset.weights, draw, k, dataset.assignments, family, mode=mode
    )


def mean_total(dataset, spec, method, runs=3000, k=4, family=FAMILY,
               estimator="colocated"):
    total = 0.0
    for run in range(runs):
        summary = summary_for(dataset, method, k, seed=run, family=family)
        total += QueryEngine(summary).estimate(spec, estimator)
    return total / runs


class TestUnbiasedness:
    """Statistical: mean estimate over many draws ≈ exact aggregate."""

    @pytest.mark.parametrize("method,family", [
        ("shared_seed", IppsRanks()),
        ("independent", IppsRanks()),
        ("shared_seed", ExponentialRanks()),
        ("independent_differences", ExponentialRanks()),
    ])
    def test_single_assignment(self, method, family):
        dataset = make_random_dataset(n_keys=20, seed=11)
        spec = AggregationSpec("single", ("w1",))
        exact = dataset.total("w1")
        mean = mean_total(dataset, spec, method, family=family)
        assert mean == pytest.approx(exact, rel=0.12)

    @pytest.mark.parametrize("function", ["min", "max", "l1"])
    def test_multi_assignment(self, function):
        dataset = make_random_dataset(n_keys=20, seed=12)
        spec = AggregationSpec(function, tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, "shared_seed")
        assert mean == pytest.approx(exact, rel=0.12)

    def test_lth_largest(self):
        dataset = make_random_dataset(n_keys=20, seed=13)
        spec = AggregationSpec("lth_largest", tuple(dataset.assignments), ell=2)
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, "shared_seed")
        assert mean == pytest.approx(exact, rel=0.12)

    def test_generic_estimator_unbiased(self):
        dataset = make_random_dataset(n_keys=20, seed=14)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(
            dataset, spec, "shared_seed", estimator="generic"
        )
        assert mean == pytest.approx(exact, rel=0.15)


class TestInclusionProbabilities:
    def test_in_unit_interval(self):
        dataset = make_random_dataset(seed=2)
        for method in ("shared_seed", "independent"):
            summary = summary_for(dataset, method)
            p = inclusion_probabilities(summary)
            assert np.all(p > 0.0) and np.all(p <= 1.0)

    def test_independent_differences_probabilities_valid(self):
        dataset = make_random_dataset(seed=2)
        summary = summary_for(
            dataset, "independent_differences", family=ExponentialRanks()
        )
        p = inclusion_probabilities(summary)
        assert np.all(p > 0.0) and np.all(p <= 1.0)

    def test_shared_seed_probability_is_max_over_assignments(self):
        dataset = make_random_dataset(seed=3)
        summary = summary_for(dataset, "shared_seed")
        p = inclusion_probabilities(summary)
        per_b = summary.family.cdf_matrix(summary.weights, summary.thresholds)
        np.testing.assert_allclose(p, per_b.max(axis=1))

    def test_independent_probability_at_least_shared_formula_terms(self):
        """1 − Π(1 − q_b) >= max_b q_b for identical per-assignment terms."""
        dataset = make_random_dataset(seed=3)
        summary = summary_for(dataset, "independent")
        p = inclusion_probabilities(summary)
        per_b = summary.family.cdf_matrix(summary.weights, summary.thresholds)
        assert np.all(p >= per_b.max(axis=1) - 1e-12)

    def test_inclusion_matches_empirical_frequency(self):
        """Union membership frequency ≈ mean analytic probability."""
        dataset = make_random_dataset(n_keys=15, seed=5)
        counts = np.zeros(15)
        p_sum = np.zeros(15)
        runs = 3000
        for run in range(runs):
            summary = summary_for(dataset, "shared_seed", k=3, seed=run)
            counts[summary.positions] += 1
            # accumulate analytic p at the sampled positions only: we
            # compare E[1{sampled}] = E[p] via the tower rule by averaging
            # p over *all* runs, so also add p for unsampled keys using the
            # summary of the run through the full-data context instead.
        from repro.evaluation.analytic import colocated_inclusion_p, make_context
        for run in range(runs // 10):
            rng = np.random.default_rng([run])
            draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
            ctx = make_context(dataset.weights, draw, 3, FAMILY)
            p_sum += colocated_inclusion_p(ctx)
        np.testing.assert_allclose(
            counts / runs, p_sum / (runs // 10), atol=0.05
        )

    def test_requires_colocated_mode(self):
        dataset = make_random_dataset(seed=2)
        summary = summary_for(dataset, mode="dispersed")
        with pytest.raises(ValueError, match="colocated"):
            inclusion_probabilities(summary)


class TestDominance:
    """Lemma 8.2 / Lemma 5.1 as deterministic per-draw statements."""

    def test_inclusive_p_at_least_plain_p(self):
        """Inclusive inclusion probability ≥ the single-sketch probability,
        hence inclusive per-key variance is never larger (Lemma 8.2)."""
        dataset = make_random_dataset(seed=7)
        summary = summary_for(dataset, "shared_seed", k=4)
        p_inclusive = inclusion_probabilities(summary)
        for b_idx in range(dataset.n_assignments):
            per_b = summary.family.cdf_matrix(
                summary.weights[:, b_idx], summary.thresholds[:, b_idx]
            )
            assert np.all(p_inclusive >= per_b - 1e-12)

    def test_generic_selection_subset_of_inclusive(self):
        dataset = make_random_dataset(seed=8)
        summary = summary_for(dataset, "shared_seed", k=4)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        generic = QueryEngine(summary).adjusted(spec, "generic")
        assert set(generic.positions) <= set(summary.positions)

    def test_generic_requires_consistent_ranks(self):
        dataset = make_random_dataset(seed=8)
        summary = summary_for(dataset, "independent")
        with pytest.raises(ValueError, match="consistent"):
            QueryEngine(summary).adjusted(
                AggregationSpec("max", tuple(dataset.assignments)), "generic"
            )


class TestPlainRC:
    def test_uses_only_own_sketch_members(self):
        dataset = make_random_dataset(seed=9)
        summary = summary_for(dataset, "shared_seed", k=4)
        adjusted = QueryEngine(summary).adjusted(W1, "plain_rc")
        member_rows = summary.member[:, 0]
        assert set(adjusted.positions) == set(summary.positions[member_rows])

    def test_unbiased(self):
        dataset = make_random_dataset(n_keys=20, seed=10)
        exact = dataset.total("w2")
        total = 0.0
        runs = 3000
        for run in range(runs):
            summary = summary_for(dataset, "shared_seed", k=4, seed=run)
            total += QueryEngine(summary).estimate(
                AggregationSpec("single", ("w2",)), "plain_rc"
            )
        assert total / runs == pytest.approx(exact, rel=0.1)

    def test_requires_bottomk_summary(self):
        dataset = make_random_dataset(seed=9)
        from repro.core.summary import build_poisson_summary
        from repro.sampling.poisson import calibrate_tau

        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        taus = np.array(
            [calibrate_tau(dataset.weights[:, b], FAMILY, 4.0)
             for b in range(dataset.n_assignments)]
        )
        summary = build_poisson_summary(
            dataset.weights, draw, taus, dataset.assignments, FAMILY
        )
        with pytest.raises(ValueError, match="bottom-k"):
            QueryEngine(summary).adjusted(W1, "plain_rc")
