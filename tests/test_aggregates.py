"""Tests for key-wise aggregate functions and exact aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import (
    AggregationSpec,
    exact_aggregate,
    jaccard_similarity,
    key_values,
    lth_largest_weights,
    max_weights,
    min_weights,
    range_weights,
    single_weights,
)
from repro.core.predicates import key_in

from tests.conftest import FIG2_WEIGHTS


class TestKeyWiseFunctions:
    """Checked against the worked values printed in Figure 2 of the paper."""

    def test_max_over_w1_w2(self, fig2_dataset):
        np.testing.assert_array_equal(
            max_weights(fig2_dataset, ["w1", "w2"]), [20, 10, 12, 20, 10, 10]
        )

    def test_max_over_all(self, fig2_dataset):
        np.testing.assert_array_equal(
            max_weights(fig2_dataset), [20, 15, 15, 20, 15, 10]
        )

    def test_min_over_w1_w2(self, fig2_dataset):
        # The paper's Figure 2 prints w(min{1,2})(i4) = 0, but with
        # w1(i4) = 5, w2(i4) = 20 the minimum is 5 — confirmed by the
        # figure's own L1 row (max − L1 = 20 − 15 = 5).  Paper typo.
        np.testing.assert_array_equal(
            min_weights(fig2_dataset, ["w1", "w2"]), [15, 0, 10, 5, 0, 10]
        )

    def test_min_over_all(self, fig2_dataset):
        np.testing.assert_array_equal(
            min_weights(fig2_dataset), [10, 0, 10, 0, 0, 10]
        )

    def test_l1_w1_w2(self, fig2_dataset):
        np.testing.assert_array_equal(
            range_weights(fig2_dataset, ["w1", "w2"]), [5, 10, 2, 15, 10, 0]
        )

    def test_l1_w2_w3(self, fig2_dataset):
        np.testing.assert_array_equal(
            range_weights(fig2_dataset, ["w2", "w3"]), [10, 5, 3, 20, 15, 0]
        )

    def test_single(self, fig2_dataset):
        np.testing.assert_array_equal(
            single_weights(fig2_dataset, "w2"), FIG2_WEIGHTS[:, 1]
        )

    def test_lth_largest_medians(self, fig2_dataset):
        median = lth_largest_weights(fig2_dataset, 2)
        np.testing.assert_array_equal(median, [15, 10, 12, 5, 10, 10])

    def test_lth_largest_bounds(self, fig2_dataset):
        with pytest.raises(ValueError, match="between 1 and"):
            lth_largest_weights(fig2_dataset, 0)
        with pytest.raises(ValueError, match="between 1 and"):
            lth_largest_weights(fig2_dataset, 4)

    def test_lth_largest_extremes_match_min_max(self, fig2_dataset):
        np.testing.assert_array_equal(
            lth_largest_weights(fig2_dataset, 1), max_weights(fig2_dataset)
        )
        np.testing.assert_array_equal(
            lth_largest_weights(fig2_dataset, 3), min_weights(fig2_dataset)
        )


class TestAggregationSpec:
    def test_valid_specs(self):
        AggregationSpec("min", ("a", "b"))
        AggregationSpec("single", ("a",))
        AggregationSpec("lth_largest", ("a", "b", "c"), ell=2)

    def test_single_needs_exactly_one(self):
        with pytest.raises(ValueError, match="exactly one"):
            AggregationSpec("single", ("a", "b"))

    def test_lth_largest_needs_ell(self):
        with pytest.raises(ValueError, match="require ell"):
            AggregationSpec("lth_largest", ("a", "b"))

    @pytest.mark.parametrize("ell", [0, -1, 4])
    def test_lth_largest_ell_out_of_range(self, ell):
        """ℓ outside 1..|R| has no meaning; it must not reach an estimator."""
        with pytest.raises(ValueError, match="between 1 and"):
            AggregationSpec("lth_largest", ("a", "b", "c"), ell=ell)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            AggregationSpec("median", ("a",))

    def test_empty_assignments(self):
        with pytest.raises(ValueError, match="non-empty"):
            AggregationSpec("min", ())

    def test_dependence_ell(self):
        assert AggregationSpec("max", ("a", "b", "c")).dependence_ell == 1
        assert AggregationSpec("min", ("a", "b", "c")).dependence_ell == 3
        assert AggregationSpec("single", ("a",)).dependence_ell == 1
        assert (
            AggregationSpec("lth_largest", ("a", "b", "c"), ell=2).dependence_ell
            == 2
        )

    def test_l1_has_no_dependence_ell(self):
        with pytest.raises(ValueError, match="not a top-ℓ"):
            AggregationSpec("l1", ("a", "b")).dependence_ell


class TestExactAggregate:
    def test_paper_max_dominance_example(self, fig2_dataset):
        """Paper: max over even keys and all assignments = 15+20+10 = 45."""
        spec = AggregationSpec(
            "max",
            ("w1", "w2", "w3"),
            predicate=key_in({"i2", "i4", "i6"}),
        )
        assert exact_aggregate(fig2_dataset, spec) == 45.0

    def test_paper_l1_example(self, fig2_dataset):
        """Paper: L1 between w2, w3 over keys i1..i3 = 10+5+3 = 18."""
        spec = AggregationSpec(
            "l1", ("w2", "w3"), predicate=key_in({"i1", "i2", "i3"})
        )
        assert exact_aggregate(fig2_dataset, spec) == 18.0

    def test_key_values_matches_spec_routing(self, fig2_dataset):
        for spec in [
            AggregationSpec("single", ("w1",)),
            AggregationSpec("min", ("w1", "w3")),
            AggregationSpec("max", ("w1", "w3")),
            AggregationSpec("l1", ("w1", "w3")),
            AggregationSpec("lth_largest", ("w1", "w2", "w3"), ell=2),
        ]:
            values = key_values(fig2_dataset, spec)
            assert values.shape == (6,)
            assert exact_aggregate(fig2_dataset, spec) == pytest.approx(
                values.sum()
            )


class TestJaccard:
    def test_identical_assignments_give_one(self):
        from repro.core.dataset import MultiAssignmentDataset

        ds = MultiAssignmentDataset(
            ["a", "b"], ["x", "y"], [[2.0, 2.0], [3.0, 3.0]]
        )
        assert jaccard_similarity(ds, "x", "y") == 1.0

    def test_disjoint_supports_give_zero(self):
        from repro.core.dataset import MultiAssignmentDataset

        ds = MultiAssignmentDataset(
            ["a", "b"], ["x", "y"], [[2.0, 0.0], [0.0, 3.0]]
        )
        assert jaccard_similarity(ds, "x", "y") == 0.0

    def test_value_on_fig2(self, fig2_dataset):
        # Σ min(w1,w2) = 40, Σ max(w1,w2) = 82 (the Figure 1 weighted set
        # is exactly w^max{1,2} of Figure 2, total 82).
        assert jaccard_similarity(fig2_dataset, "w1", "w2") == pytest.approx(
            40.0 / 82.0
        )

    def test_all_zero_returns_zero(self):
        from repro.core.dataset import MultiAssignmentDataset

        ds = MultiAssignmentDataset(["a"], ["x", "y"], [[0.0, 0.0]])
        assert jaccard_similarity(ds, "x", "y") == 0.0
