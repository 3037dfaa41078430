"""Tests for the analytic conditional-variance path.

The key check: the analytic per-run ΣV must agree with the empirical
average of realized squared errors (they estimate the same quantity), and
the deterministic dominance relations of Section 8 must hold per draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.evaluation.analytic import (
    colocated_inclusion_p,
    make_context,
    sv_colocated_inclusive,
    sv_independent_min,
    sv_l1,
    sv_lset,
    sv_plain_rc,
    sv_sset,
    variance_from_probabilities,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import IppsRanks

from tests.conftest import make_random_dataset

FAMILY = IppsRanks()


def context_for(dataset, method="shared_seed", k=5, seed=0):
    rng = np.random.default_rng([seed])
    draw = get_rank_method(method).draw(FAMILY, dataset.weights, rng)
    return draw, make_context(dataset.weights, draw, k, FAMILY)


class TestContext:
    def test_member_matches_summary(self):
        dataset = make_random_dataset(seed=51)
        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(FAMILY, dataset.weights, rng)
        ctx = make_context(dataset.weights, draw, 4, FAMILY)
        summary = build_bottomk_summary(
            dataset.weights, draw, 4, dataset.assignments, FAMILY
        )
        np.testing.assert_array_equal(
            ctx.member[summary.positions], summary.member
        )
        np.testing.assert_allclose(
            ctx.thresholds[summary.positions], summary.thresholds
        )
        assert ctx.union_size() == summary.n_union

    def test_nonmembers_have_no_membership(self):
        dataset = make_random_dataset(seed=51)
        _, ctx = context_for(dataset, k=4)
        assert ctx.member.sum(axis=0).max() <= 4

    def test_union_size_counts_distinct(self):
        dataset = make_random_dataset(seed=52)
        _, ctx = context_for(dataset, k=3)
        assert ctx.union_size() == int(ctx.member.any(axis=1).sum())


class TestAgreementWithEmpirical:
    """Analytic ΣV ≈ empirical squared-error ΣV (same estimand)."""

    @pytest.mark.parametrize(
        "label", ["max", "min-l", "min-s", "l1-l", "plain"]
    )
    def test_dispersed_estimators(self, label):
        dataset = make_random_dataset(n_keys=15, seed=53)
        names = tuple(dataset.assignments)
        cols = [0, 1, 2]
        m = len(cols)
        spec_min = AggregationSpec("min", names)
        f_min = key_values(dataset, spec_min)
        f_max = key_values(dataset, AggregationSpec("max", names))
        f_l1 = key_values(dataset, AggregationSpec("l1", names))

        spec, estimator = {
            "max": (AggregationSpec("max", names), "sset"),
            "min-l": (spec_min, "lset"),
            "min-s": (spec_min, "sset"),
            "l1-l": (AggregationSpec("l1", names), "l1-l"),
            "plain": (AggregationSpec("single", ("w1",)), "plain_rc"),
        }[label]

        def estimate(summary):
            return QueryEngine(summary).adjusted(spec, estimator)

        def analytic(ctx):
            return {
                "max": lambda: sv_sset(ctx, cols, 1, f_max),
                "min-l": lambda: sv_lset(ctx, cols, m, f_min),
                "min-s": lambda: sv_sset(ctx, cols, m, f_min),
                "l1-l": lambda: sv_l1(ctx, cols, "l"),
                "plain": lambda: sv_plain_rc(ctx, 0),
            }[label]()

        f_true = {"max": f_max, "min-l": f_min, "min-s": f_min,
                  "l1-l": f_l1, "plain": dataset.column("w1")}[label]
        runs = 4000
        empirical = 0.0
        analytic_total = 0.0
        method = get_rank_method("shared_seed")
        for run in range(runs):
            rng = np.random.default_rng([9, run])
            draw = method.draw(FAMILY, dataset.weights, rng)
            summary = build_bottomk_summary(
                dataset.weights, draw, 5, dataset.assignments, FAMILY,
                mode="dispersed",
            )
            empirical += estimate(summary).squared_error_sum(f_true)
            ctx = make_context(dataset.weights, draw, 5, FAMILY)
            analytic_total += analytic(ctx)
        empirical /= runs
        analytic_total /= runs
        assert empirical == pytest.approx(analytic_total, rel=0.2)

    def test_colocated_inclusive(self):
        dataset = make_random_dataset(n_keys=15, seed=54)
        f = dataset.column("w1")
        spec = AggregationSpec("single", ("w1",))

        runs = 4000
        empirical = 0.0
        analytic_total = 0.0
        method = get_rank_method("shared_seed")
        for run in range(runs):
            rng = np.random.default_rng([11, run])
            draw = method.draw(FAMILY, dataset.weights, rng)
            summary = build_bottomk_summary(
                dataset.weights, draw, 5, dataset.assignments, FAMILY
            )
            adjusted = QueryEngine(summary).adjusted(spec, "colocated")
            empirical += adjusted.squared_error_sum(f)
            ctx = make_context(dataset.weights, draw, 5, FAMILY)
            analytic_total += sv_colocated_inclusive(ctx, f)
        assert empirical / runs == pytest.approx(analytic_total / runs, rel=0.2)


class TestDominanceRelations:
    """Section 8 inequalities hold per draw (deterministically)."""

    def test_lset_p_at_least_sset_p(self):
        dataset = make_random_dataset(n_keys=40, seed=55)
        cols = [0, 1, 2]
        f_min = key_values(
            dataset, AggregationSpec("min", tuple(dataset.assignments))
        )
        for run in range(50):
            _, ctx = context_for(dataset, seed=run)
            assert sv_lset(ctx, cols, 3, f_min) <= sv_sset(
                ctx, cols, 3, f_min
            ) * (1 + 1e-9)

    def test_inclusive_dominates_plain(self):
        """Lemma 8.2: per-draw inclusive ΣV <= plain ΣV for each b."""
        dataset = make_random_dataset(n_keys=40, seed=56)
        for run in range(50):
            _, ctx = context_for(dataset, seed=run)
            for b in range(dataset.n_assignments):
                f = dataset.weights[:, b]
                assert sv_colocated_inclusive(ctx, f) <= sv_plain_rc(
                    ctx, b
                ) * (1 + 1e-9)

    def test_coordinated_min_dominates_independent_min(self):
        """Eq. (15) >= Eq. (16) pointwise, hence lower variance."""
        dataset = make_random_dataset(n_keys=40, seed=57)
        cols = [0, 1, 2]
        f_min = dataset.weights.min(axis=1)
        for run in range(30):
            _, ctx_coord = context_for(dataset, "shared_seed", seed=run)
            _, ctx_ind = context_for(dataset, "independent", seed=run)
            coord = sv_lset(ctx_coord, cols, 3, f_min)
            independent = sv_independent_min(ctx_ind, cols)
            assert coord <= independent * (1 + 1e-9)

    def test_max_estimator_beats_direct_max_sample_bound(self):
        """Lemma 8.4: ΣV[a^max] <= ΣV of RC over a bottom-k of (I, w^max).

        Checked via averaged analytic values: the max estimator's p uses
        θ_min while the direct sketch of w^max with ranks r^min has the
        same thresholds, so per-draw equality-or-domination holds; we
        assert the averaged relation with slack.
        """
        dataset = make_random_dataset(n_keys=40, seed=58)
        cols = [0, 1, 2]
        f_max = dataset.weights.max(axis=1)
        method = get_rank_method("shared_seed")
        total_max_est = 0.0
        total_direct = 0.0
        runs = 100
        for run in range(runs):
            rng = np.random.default_rng([13, run])
            draw = method.draw(FAMILY, dataset.weights, rng)
            ctx = make_context(dataset.weights, draw, 5, FAMILY)
            total_max_est += sv_sset(ctx, cols, 1, f_max)
            # direct RC over the derived sketch of (I, w^max) with r^min:
            min_ranks = draw.ranks.min(axis=1)
            finite = np.sort(min_ranks[np.isfinite(min_ranks)])
            r_k, r_k1 = finite[4], finite[5]
            member = min_ranks < r_k1
            theta = np.where(member, r_k1, r_k)
            p = FAMILY.cdf_matrix(f_max, theta)
            total_direct += variance_from_probabilities(f_max, p)
        assert total_max_est <= total_direct * 1.05

    def test_l1_variance_below_min_plus_max(self):
        """Lemma 8.6: ΣV[L1] <= ΣV[min] + ΣV[max] per draw."""
        dataset = make_random_dataset(n_keys=40, seed=59)
        cols = [0, 1, 2]
        f_min = dataset.weights.min(axis=1)
        f_max = dataset.weights.max(axis=1)
        for run in range(30):
            _, ctx = context_for(dataset, seed=run)
            l1 = sv_l1(ctx, cols, "l")
            bound = sv_lset(ctx, cols, 3, f_min) + sv_sset(ctx, cols, 1, f_max)
            assert l1 <= bound * (1 + 1e-9)

    def test_l1_variance_nonnegative(self):
        dataset = make_random_dataset(n_keys=40, seed=60)
        for run in range(30):
            _, ctx = context_for(dataset, seed=run)
            assert sv_l1(ctx, [0, 1, 2], "l") >= 0.0
            assert sv_l1(ctx, [0, 1, 2], "s") >= 0.0


class TestValidation:
    def test_l1_requires_consistent(self):
        dataset = make_random_dataset(seed=61)
        _, ctx = context_for(dataset, "independent")
        with pytest.raises(ValueError, match="consistent"):
            sv_l1(ctx, [0, 1, 2])

    def test_variance_from_probabilities_guards(self):
        with pytest.raises(ValueError, match="existence"):
            variance_from_probabilities(np.array([1.0]), np.array([0.0]))

    def test_sset_independent_needs_min(self):
        dataset = make_random_dataset(seed=61)
        _, ctx = context_for(dataset, "independent")
        with pytest.raises(ValueError, match="min-dependence"):
            sv_sset(ctx, [0, 1, 2], 1, dataset.weights.max(axis=1))

    def test_colocated_p_in_unit_interval(self):
        dataset = make_random_dataset(seed=62)
        for method in ("shared_seed", "independent"):
            _, ctx = context_for(dataset, method)
            p = colocated_inclusion_p(ctx)
            positive = dataset.weights.max(axis=1) > 0
            assert np.all(p[positive] > 0.0)
            assert np.all(p <= 1.0 + 1e-12)
