"""Tests for the EXP and IPPS rank families."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranks.families import (
    ExponentialRanks,
    IppsRanks,
    get_rank_family,
)

FAMILIES = [ExponentialRanks(), IppsRanks()]

positive_weights = st.floats(min_value=1e-6, max_value=1e6)
unit_open = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
thresholds = st.floats(min_value=1e-9, max_value=1e9)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
class TestFamilyContract:
    @given(w=positive_weights, u=unit_open)
    @settings(max_examples=150)
    def test_cdf_inverts_inv_cdf(self, family, w, u):
        x = family.inv_cdf(w, u)
        assert family.cdf(w, x) == pytest.approx(u, rel=1e-9, abs=1e-12)

    @given(w=positive_weights, x=thresholds)
    @settings(max_examples=150)
    def test_cdf_in_unit_interval(self, family, w, x):
        assert 0.0 <= family.cdf(w, x) <= 1.0

    @given(w1=positive_weights, w2=positive_weights, x=thresholds)
    @settings(max_examples=150)
    def test_monotone_in_weight(self, family, w1, w2, x):
        lo, hi = sorted((w1, w2))
        assert family.cdf(hi, x) >= family.cdf(lo, x)

    @given(w=positive_weights, x1=thresholds, x2=thresholds)
    @settings(max_examples=150)
    def test_monotone_in_threshold(self, family, w, x1, x2):
        lo, hi = sorted((x1, x2))
        assert family.cdf(w, hi) >= family.cdf(w, lo)

    @given(w=positive_weights, u1=unit_open, u2=unit_open)
    @settings(max_examples=150)
    def test_inv_cdf_monotone_in_seed(self, family, w, u1, u2):
        lo, hi = sorted((u1, u2))
        assert family.inv_cdf(w, hi) >= family.inv_cdf(w, lo)

    @given(w1=positive_weights, w2=positive_weights, u=unit_open)
    @settings(max_examples=150)
    def test_shared_seed_consistency(self, family, w1, w2, u):
        """Larger weight, same seed => smaller-or-equal rank."""
        lo, hi = sorted((w1, w2))
        assert family.rank(hi, u) <= family.rank(lo, u)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @given(
        base=st.lists(
            st.floats(min_value=0.0, allow_nan=False), min_size=1, max_size=40
        ),
        u=st.floats(min_value=2.0**-65, max_value=1.0 - 2.0**-53),
    )
    @settings(max_examples=200)
    def test_ranks_array_non_increasing_in_weight(self, family, base, u):
        """The IEEE form of the contract, over the whole float range:
        zeros, denormals (rank overflows to inf), neighbouring floats,
        totals that overflowed to inf.  Incremental shard finalization and
        ``BottomKSketch.scaled`` both rest on it."""
        base = np.array(base)
        grid = np.unique(np.concatenate(
            [base, np.nextafter(base, np.inf), np.nextafter(base, 0.0)]
        ))
        ranks = family.ranks_array(grid, np.full(len(grid), u))
        assert not np.isnan(ranks).any()
        assert (ranks[1:] <= ranks[:-1]).all()

    def test_zero_weight_never_sampled(self, family):
        assert family.rank(0.0, 0.5) == math.inf
        assert family.cdf(0.0, 100.0) == 0.0

    def test_cdf_at_zero_and_inf(self, family):
        assert family.cdf(3.0, 0.0) == 0.0
        assert family.cdf(3.0, math.inf) == 1.0

    @given(u=st.sampled_from([0.0, 1.0, -0.5, 2.0]))
    def test_inv_cdf_rejects_bad_seed(self, family, u):
        with pytest.raises(ValueError):
            family.inv_cdf(1.0, u)

    def test_cdf_array_matches_scalar(self, family):
        weights = np.array([0.0, 0.5, 2.0, 100.0])
        x = 0.3
        expected = [family.cdf(float(w), x) for w in weights]
        np.testing.assert_allclose(family.cdf_array(weights, x), expected)

    def test_cdf_array_at_infinity(self, family):
        weights = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(
            family.cdf_array(weights, math.inf), [0.0, 1.0, 1.0]
        )

    def test_ranks_array_matches_scalar(self, family):
        weights = np.array([0.0, 0.5, 2.0])
        seeds = np.array([0.3, 0.3, 0.9])
        got = family.ranks_array(weights, seeds)
        expected = [family.rank(float(w), float(u)) for w, u in zip(weights, seeds)]
        np.testing.assert_allclose(got, expected)

    def test_cdf_matrix_matches_scalar(self, family):
        weights = np.array([[0.0, 2.0], [1.0, 3.0]])
        x = np.array([[0.5, math.inf], [0.0, 0.1]])
        got = family.cdf_matrix(weights, x)
        for i in range(2):
            for j in range(2):
                assert got[i, j] == pytest.approx(
                    family.cdf(float(weights[i, j]), float(x[i, j]))
                )

    def test_cdf_matrix_no_nan_on_zero_weight_inf_threshold(self, family):
        got = family.cdf_matrix(np.array([[0.0]]), np.array([[math.inf]]))
        assert got[0, 0] == 0.0

    def test_equality_by_type(self, family):
        assert family == type(family)()
        assert hash(family) == hash(type(family)())


class TestExponentialSpecifics:
    def test_cdf_formula(self):
        fam = ExponentialRanks()
        assert fam.cdf(2.0, 0.5) == pytest.approx(1.0 - math.exp(-1.0))

    def test_min_rank_is_exponential_of_total_weight(self):
        """min of Exp(w_i) is Exp(Σ w_i) — checked via the empirical mean."""
        fam = ExponentialRanks()
        rng = np.random.default_rng(0)
        weights = np.array([1.0, 2.0, 3.0])
        mins = []
        for _ in range(4000):
            seeds = rng.random(3)
            mins.append(min(fam.rank(w, u) for w, u in zip(weights, seeds)))
        assert np.mean(mins) == pytest.approx(1.0 / 6.0, rel=0.1)

    def test_extreme_weight_cdf_is_one_without_a_warning(self):
        """-w·x overflows to -inf at w = 1e308: F = 1 exactly, and the
        harmless overflow raises no RuntimeWarning."""
        fam = ExponentialRanks()
        weights = np.array([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fam.cdf_array(weights, 10.0).tolist() == [1.0, 1.0]
            got = fam.cdf_matrix(weights, np.array([10.0, np.inf]))
        assert got.tolist() == [1.0, 1.0]


class TestIppsSpecifics:
    def test_rank_is_seed_over_weight(self):
        fam = IppsRanks()
        assert fam.rank(20.0, 0.22) == pytest.approx(0.011)

    def test_cdf_caps_at_one(self):
        fam = IppsRanks()
        assert fam.cdf(10.0, 1.0) == 1.0

    def test_figure1_rank_values(self):
        """The exact rank column of Figure 1 in the paper."""
        fam = IppsRanks()
        weights = [20.0, 10.0, 12.0, 20.0, 10.0, 10.0]
        seeds = [0.22, 0.75, 0.07, 0.92, 0.55, 0.37]
        expected = [0.011, 0.075, 0.07 / 12, 0.046, 0.055, 0.037]
        got = [fam.rank(w, u) for w, u in zip(weights, seeds)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_rank_family("exp").name == "exp"
        assert get_rank_family("IPPS").name == "ipps"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown rank family"):
            get_rank_family("gaussian")
