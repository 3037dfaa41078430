"""Tests for the dispersed s-set / l-set / L1 estimators (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks, IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()


def summary_for(dataset, method="shared_seed", k=5, seed=0, family=FAMILY):
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(family, dataset.weights, rng)
    return build_bottomk_summary(
        dataset.weights, draw, k, dataset.assignments, family, mode="dispersed"
    )


def mean_total(dataset, spec, estimator, method="shared_seed", runs=3000,
               k=5, family=FAMILY):
    total = 0.0
    for run in range(runs):
        summary = summary_for(dataset, method, k, run, family)
        total += QueryEngine(summary).estimate(spec, estimator)
    return total / runs


class TestUnbiasedness:
    @pytest.mark.parametrize("family", [IppsRanks(), ExponentialRanks()],
                             ids=["ipps", "exp"])
    def test_max(self, family):
        dataset = make_random_dataset(n_keys=20, seed=21)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, "sset", family=family)
        assert mean == pytest.approx(exact, rel=0.12)

    @pytest.mark.parametrize("variant", ["s", "l"])
    def test_min(self, variant):
        dataset = make_random_dataset(n_keys=20, seed=22)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("min", names)
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, f"{variant}set")
        assert mean == pytest.approx(exact, rel=0.15)

    @pytest.mark.parametrize("variant", ["s", "l"])
    def test_l1(self, variant):
        dataset = make_random_dataset(n_keys=20, seed=23)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(dataset, spec, f"l1-{variant}")
        assert mean == pytest.approx(exact, rel=0.15)

    def test_lth_largest(self):
        dataset = make_random_dataset(n_keys=20, seed=24)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("lth_largest", names, ell=2)
        exact = float(key_values(dataset, spec).sum())
        for estimator in ("sset", "lset"):
            mean = mean_total(dataset, spec, estimator)
            assert mean == pytest.approx(exact, rel=0.15)

    def test_independent_min(self):
        dataset = make_random_dataset(n_keys=15, n_assignments=2, seed=25,
                                      churn=0.0)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(
            dataset,
            spec,
            "lset",
            method="independent",
            runs=8000,
            k=8,
        )
        assert mean == pytest.approx(exact, rel=0.2)

    def test_independent_min_sset_variant(self):
        dataset = make_random_dataset(n_keys=15, n_assignments=2, seed=26,
                                      churn=0.0)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("min", names)
        exact = float(key_values(dataset, spec).sum())
        mean = mean_total(
            dataset,
            spec,
            "sset",
            method="independent",
            runs=8000,
            k=8,
        )
        assert mean == pytest.approx(exact, rel=0.2)


class TestL1Properties:
    def test_per_key_nonnegative(self):
        """Lemma 7.5: a^L1(i) >= 0 for consistent IPPS/EXP ranks."""
        dataset = make_random_dataset(n_keys=40, seed=27)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        for family in (IppsRanks(), ExponentialRanks()):
            for run in range(200):
                summary = summary_for(dataset, "shared_seed", 6, run, family)
                engine = QueryEngine(summary)
                for estimator in ("l1-s", "l1-l"):
                    adjusted = engine.adjusted(spec, estimator)
                    assert np.all(adjusted.values >= -1e-9)

    def test_min_selection_implies_max_selection(self):
        dataset = make_random_dataset(n_keys=40, seed=28)
        names = tuple(dataset.assignments)
        for run in range(100):
            engine = QueryEngine(summary_for(dataset, seed=run))
            a_max = engine.adjusted(AggregationSpec("max", names), "sset")
            a_min = engine.adjusted(AggregationSpec("min", names), "lset")
            assert set(a_min.positions) <= set(a_max.positions)

    def test_l1_rejected_by_raw_templates(self):
        dataset = make_random_dataset(seed=29)
        summary = summary_for(dataset)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        for estimator in ("sset", "lset"):
            with pytest.raises(ValueError, match="not top-ℓ dependent"):
                QueryEngine(summary).adjusted(spec, estimator)


class TestSelectionStructure:
    def test_sset_selection_subset_of_lset(self):
        """S*_s ⊆ S*_l (Lemma 5.1 setup): l-set keys include s-set keys."""
        dataset = make_random_dataset(n_keys=40, seed=30)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("min", names)
        for run in range(100):
            engine = QueryEngine(summary_for(dataset, seed=run))
            s_keys = set(engine.adjusted(spec, "sset").positions)
            l_keys = set(engine.adjusted(spec, "lset").positions)
            assert s_keys <= l_keys

    def test_max_sset_equals_lset(self):
        """At ℓ=1 the two templates coincide (Section 7.2)."""
        dataset = make_random_dataset(n_keys=40, seed=31)
        names = tuple(dataset.assignments)
        spec = AggregationSpec("max", names)
        for run in range(50):
            engine = QueryEngine(summary_for(dataset, seed=run))
            a_s = engine.adjusted(spec, "sset")
            a_l = engine.adjusted(spec, "lset")
            assert a_s.positions.tolist() == a_l.positions.tolist()
            np.testing.assert_allclose(a_s.values, a_l.values)

    def test_recovered_weights_match_truth(self):
        """f values used by the estimator equal the true top-ℓ weights."""
        dataset = make_random_dataset(n_keys=40, seed=32)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        true_max = key_values(dataset, spec)
        for run in range(50):
            summary = summary_for(dataset, seed=run)
            adjusted = QueryEngine(summary).adjusted(spec, "sset")
            # a(i) = w_max(i)/p with p <= 1  =>  a(i) >= w_max(i)
            assert np.all(adjusted.values >= true_max[adjusted.positions] - 1e-9)

    def test_adjusted_weights_nonnegative(self):
        dataset = make_random_dataset(seed=33)
        names = tuple(dataset.assignments)
        for run in range(50):
            engine = QueryEngine(summary_for(dataset, seed=run))
            for spec in (
                AggregationSpec("max", names),
                AggregationSpec("min", names),
                AggregationSpec("lth_largest", names, ell=2),
            ):
                for estimator in ("sset", "lset"):
                    adjusted = engine.adjusted(spec, estimator)
                    assert np.all(adjusted.values >= 0.0)


class TestValidation:
    def test_sset_independent_only_min(self):
        dataset = make_random_dataset(seed=34)
        summary = summary_for(dataset, method="independent")
        with pytest.raises(ValueError, match="min-dependence"):
            QueryEngine(summary).adjusted(
                AggregationSpec("max", tuple(dataset.assignments)), "sset"
            )

    def test_lset_needs_seeds_for_middle_ell(self):
        from repro.ranks.families import ExponentialRanks

        dataset = make_random_dataset(seed=34)
        family = ExponentialRanks()
        rng = np.random.default_rng(0)
        draw = get_rank_method("independent_differences").draw(
            family, dataset.weights, rng
        )
        summary = build_bottomk_summary(
            dataset.weights, draw, 5, dataset.assignments, family,
            mode="dispersed",
        )
        spec = AggregationSpec("lth_largest", tuple(dataset.assignments), ell=2)
        with pytest.raises(ValueError, match="seeds"):
            QueryEngine(summary).adjusted(spec, "lset")

    def test_engine_validates_estimator_name(self):
        dataset = make_random_dataset(seed=34)
        summary = summary_for(dataset)
        with pytest.raises(ValueError, match="unknown estimator"):
            QueryEngine(summary).adjusted(
                AggregationSpec("max", tuple(dataset.assignments)), "x"
            )

    def test_l1_validates_min_variant(self):
        dataset = make_random_dataset(seed=34)
        summary = summary_for(dataset)
        with pytest.raises(ValueError, match="'l1-s' or 'l1-l'"):
            QueryEngine(summary).adjusted(
                AggregationSpec("l1", tuple(dataset.assignments)), "l1-q"
            )
