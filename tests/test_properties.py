"""Hypothesis-driven cross-module invariants.

These properties tie the layers together: arbitrary (within reason) weight
matrices and seeds must never break the structural guarantees the
estimators rely on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.estimators.colocated import inclusion_probabilities
from repro.evaluation.analytic import make_context
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks, IppsRanks

weight_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 20), st.integers(2, 4)),
    elements=st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=1e4)
    ),
).filter(lambda w: (w > 0).any())

ks = st.integers(1, 8)
seeds = st.integers(0, 10_000)
methods = st.sampled_from(["shared_seed", "independent"])
families = st.sampled_from(["ipps", "exp"])


def make_summary(weights, k, seed, method, family_name, mode):
    family = IppsRanks() if family_name == "ipps" else ExponentialRanks()
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(family, weights, rng)
    names = [f"w{b}" for b in range(weights.shape[1])]
    return build_bottomk_summary(weights, draw, k, names, family, mode=mode)


class TestSummaryInvariants:
    @given(weights=weight_matrices, k=ks, seed=seeds, method=methods,
           family=families)
    @settings(max_examples=60, deadline=None)
    def test_union_size_bounds(self, weights, k, seed, method, family):
        summary = make_summary(weights, k, seed, method, family, "colocated")
        m = weights.shape[1]
        per_assignment = [
            min(k, int((weights[:, b] > 0).sum())) for b in range(m)
        ]
        assert max(per_assignment) <= summary.n_union <= sum(per_assignment)

    @given(weights=weight_matrices, k=ks, seed=seeds, method=methods,
           family=families)
    @settings(max_examples=60, deadline=None)
    def test_member_counts_per_assignment(self, weights, k, seed, method,
                                          family):
        summary = make_summary(weights, k, seed, method, family, "colocated")
        for b in range(weights.shape[1]):
            expected = min(k, int((weights[:, b] > 0).sum()))
            assert int(summary.member[:, b].sum()) == expected

    @given(weights=weight_matrices, k=ks, seed=seeds, method=methods,
           family=families)
    @settings(max_examples=60, deadline=None)
    def test_inclusion_probabilities_valid(self, weights, k, seed, method,
                                           family):
        summary = make_summary(weights, k, seed, method, family, "colocated")
        p = inclusion_probabilities(summary)
        assert np.all(p > 0.0)
        assert np.all(p <= 1.0 + 1e-12)


class TestEstimatorInvariants:
    @given(weights=weight_matrices, k=ks, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_l1_nonnegative_everywhere(self, weights, k, seed):
        summary = make_summary(weights, k, seed, "shared_seed", "ipps",
                               "dispersed")
        engine = QueryEngine(summary)
        spec = AggregationSpec("l1", tuple(summary.assignments))
        for estimator in ("l1-s", "l1-l"):
            adjusted = engine.adjusted(spec, estimator)
            assert np.all(adjusted.values >= -1e-9)

    @given(weights=weight_matrices, k=ks, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_max_adjusted_at_least_true_max(self, weights, k, seed):
        summary = make_summary(weights, k, seed, "shared_seed", "ipps",
                               "dispersed")
        adjusted = QueryEngine(summary).adjusted(
            AggregationSpec("max", tuple(summary.assignments)), "sset"
        )
        true_max = weights.max(axis=1)
        assert np.all(
            adjusted.values >= true_max[adjusted.positions] - 1e-9
        )

    @given(weights=weight_matrices, k=ks, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_sset_selection_within_lset(self, weights, k, seed):
        summary = make_summary(weights, k, seed, "shared_seed", "ipps",
                               "dispersed")
        spec = AggregationSpec("min", tuple(summary.assignments))
        engine = QueryEngine(summary)
        s_positions = set(engine.adjusted(spec, "sset").positions.tolist())
        l_positions = set(engine.adjusted(spec, "lset").positions.tolist())
        assert s_positions <= l_positions

    @given(weights=weight_matrices, k=ks, seed=seeds, family=families)
    @settings(max_examples=60, deadline=None)
    def test_colocated_estimate_exact_when_k_covers_everything(
        self, weights, k, seed, family
    ):
        """If k >= #positive keys in every assignment, inclusion is certain
        and the estimate must be exactly the aggregate."""
        n = weights.shape[0]
        summary = make_summary(weights, n, seed, "shared_seed", family,
                               "colocated")
        spec = AggregationSpec("max", tuple(summary.assignments))
        estimate = QueryEngine(summary).estimate(spec, "colocated")
        assert estimate == pytest.approx(float(weights.max(axis=1).sum()))

    @given(weights=weight_matrices, k=ks, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_context_thresholds_positive_and_consistent(self, weights, k,
                                                        seed):
        family = IppsRanks()
        rng = np.random.default_rng(seed)
        draw = get_rank_method("shared_seed").draw(family, weights, rng)
        ctx = make_context(weights, draw, k, family)
        assert np.all(ctx.thresholds > 0.0)
        # members always have rank < their threshold
        member_rows, member_cols = np.where(ctx.member)
        assert np.all(
            draw.ranks[member_rows, member_cols]
            < ctx.thresholds[member_rows, member_cols]
        )

    @given(weights=weight_matrices, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_estimators_handle_k_exceeding_population(self, weights, seed):
        """k larger than the number of keys must not crash or bias."""
        n = weights.shape[0]
        summary = make_summary(weights, n + 5, seed, "shared_seed", "ipps",
                               "dispersed")
        a_max = QueryEngine(summary).adjusted(
            AggregationSpec("max", tuple(summary.assignments)), "sset"
        )
        # every positive-weight key is sampled with probability 1
        assert a_max.total() == pytest.approx(float(weights.max(axis=1).sum()))
