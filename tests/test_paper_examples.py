"""Value-for-value reproduction of the paper's worked examples (Figures 1–2).

These tests pin the whole pipeline — seeds → ranks → sketches → adjusted
weights — to the concrete numbers printed in the paper.  (Two typos in the
printed figures are documented in conftest.py and test_aggregates.py.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_bottomk_summary, build_poisson_summary
from repro.engine.queries import QueryEngine
from repro.ranks.assignments import SharedSeedRanks, RankDraw
from repro.ranks.families import IppsRanks
from repro.sampling.bottomk import bottomk_from_ranks
from repro.sampling.poisson import calibrate_tau, poisson_from_ranks

from tests.conftest import (
    FIG1_KEYS,
    FIG1_RANKS,
    FIG1_SEEDS,
    FIG1_WEIGHTS,
    FIG2_WEIGHTS,
)

FAMILY = IppsRanks()
#: Figure 1's single weighted set as a one-assignment summary
FIG1_SPEC = AggregationSpec("single", ("w",))
FIG1_DRAW = RankDraw(FIG1_RANKS[:, None], FIG1_SEEDS, SharedSeedRanks())


def fig1_adjusted(summary, estimator) -> dict[str, float]:
    """The engine's adjusted weights over Figure 1, by key name."""
    adjusted = QueryEngine(summary).adjusted(FIG1_SPEC, estimator)
    return {
        FIG1_KEYS[pos]: value
        for pos, value in zip(adjusted.positions, adjusted.values)
    }


def fig1_bottomk(k: int) -> dict[str, float]:
    """Plain RC adjusted weights of Figure 1's bottom-k sample."""
    summary = build_bottomk_summary(
        FIG1_WEIGHTS[:, None], FIG1_DRAW, k, ["w"], FAMILY
    )
    return fig1_adjusted(summary, "plain_rc")


class TestFigure1Ranks:
    def test_rank_row(self):
        expected = [0.011, 0.075, 0.0583333, 0.046, 0.055, 0.037]
        np.testing.assert_allclose(FIG1_RANKS, expected, rtol=1e-4)


class TestFigure1Poisson:
    """Poisson samples with expected size k = 1, 2, 3 and AW-summaries."""

    @pytest.mark.parametrize(
        "k,expected_a_i1", [(1, 82.0), (2, 41.0), (3, 82.0 / 3.0)]
    )
    def test_sample_and_adjusted_weight(self, k, expected_a_i1):
        tau = calibrate_tau(FIG1_WEIGHTS, FAMILY, float(k))
        assert tau == pytest.approx(k / 82.0, rel=1e-6)
        sketch = poisson_from_ranks(FIG1_RANKS, FIG1_WEIGHTS, tau)
        assert sketch.keys.tolist() == [0]  # sample is {i1} in all cases
        summary = build_poisson_summary(
            FIG1_WEIGHTS[:, None], FIG1_DRAW, np.array([tau]), ["w"], FAMILY
        )
        adjusted = fig1_adjusted(summary, "ht")
        assert adjusted == pytest.approx({"i1": expected_a_i1}, rel=1e-3)

    def test_inclusion_probability_row_k1(self):
        """p(i) = min{1, w(i)·τ} row for k = 1 (paper: .24 .12 .15 .24 .12 .12)."""
        tau = 1.0 / 82.0
        p = FAMILY.cdf_array(FIG1_WEIGHTS, tau)
        np.testing.assert_allclose(
            p, [20 / 82, 10 / 82, 12 / 82, 20 / 82, 10 / 82, 10 / 82]
        )


class TestFigure1BottomK:
    """Bottom-k samples of size 1, 2, 3 and their RC AW-summaries."""

    def test_k1(self):
        sketch = bottomk_from_ranks(FIG1_RANKS, FIG1_WEIGHTS, 1)
        assert [FIG1_KEYS[i] for i in sketch.keys] == ["i1"]
        assert sketch.threshold == pytest.approx(0.037)
        assert fig1_bottomk(1) == pytest.approx({"i1": 27.02}, abs=0.01)

    def test_k2(self):
        sketch = bottomk_from_ranks(FIG1_RANKS, FIG1_WEIGHTS, 2)
        assert [FIG1_KEYS[i] for i in sketch.keys] == ["i1", "i6"]
        assert sketch.threshold == pytest.approx(0.046)
        assert fig1_bottomk(2) == pytest.approx(
            {"i1": 21.74, "i6": 21.74}, abs=0.01
        )

    def test_k3(self):
        sketch = bottomk_from_ranks(FIG1_RANKS, FIG1_WEIGHTS, 3)
        assert [FIG1_KEYS[i] for i in sketch.keys] == ["i1", "i6", "i4"]
        assert sketch.threshold == pytest.approx(0.055)
        # paper: a(i1) = 20.00, a(i6) = 18.18, a(i4) = 20.00
        assert fig1_bottomk(3) == pytest.approx(
            {"i1": 20.0, "i6": 18.18, "i4": 20.0}, abs=0.01
        )

    def test_subpopulation_estimates_from_paper(self):
        """Paper: J = {i2, i4, i6} (w(J)=40) estimates 0 / 21.74 / 38.18."""
        expected = {1: 0.0, 2: 21.74, 3: 38.18}
        selected = ("i2", "i4", "i6")
        for k, value in expected.items():
            adjusted = fig1_bottomk(k)
            estimate = sum(adjusted.get(key, 0.0) for key in selected)
            assert estimate == pytest.approx(value, abs=0.01)


class TestFigure2Ranks:
    """Shared-seed consistent IPPS rank table of Figure 2(B)."""

    def fig2_draw(self) -> RankDraw:
        ranks = np.empty((6, 3))
        for b in range(3):
            ranks[:, b] = FAMILY.ranks_array(FIG2_WEIGHTS[:, b], FIG1_SEEDS)
        return RankDraw(ranks, FIG1_SEEDS, SharedSeedRanks())

    def test_rank_table(self):
        draw = self.fig2_draw()
        inf = np.inf
        expected = np.array(
            [
                [0.0147, 0.011, 0.022],
                [inf, 0.075, 0.05],
                [0.07, 0.0583, 0.0467],
                [0.184, 0.046, inf],
                [0.055, inf, 0.0367],
                [0.037, 0.037, 0.037],
            ]
        )
        # paper prints r(1)(i3)=0.007 and r(3)(i3)=0.0047 — consistent with
        # its u(i3)=0.07 typo; with u(i3)=0.7 the values are 0.07 / 0.0467.
        np.testing.assert_allclose(draw.ranks, expected, rtol=2e-2)

    def test_bottom3_samples_match_paper(self):
        """Consistent ranks bottom-3 samples: w1: i3,i1,i6; w2: i1,i6,i4;
        w3: i3,i1,i5 — with the u(i3) typo fixed, w1's sample ordering
        changes accordingly (i1 before i6 before i3 at u(i3)=0.7)."""
        draw = self.fig2_draw()
        summary = build_bottomk_summary(
            FIG2_WEIGHTS, draw, 3, ["w1", "w2", "w3"], FAMILY, mode="colocated"
        )
        member_keys = {
            b: {FIG1_KEYS[p] for p, m in zip(summary.positions,
                                             summary.member[:, i]) if m}
            for i, b in enumerate(["w1", "w2", "w3"])
        }
        # w2's sample is unaffected by the i3 seed value in the top-3:
        assert member_keys["w2"] == {"i1", "i6", "i4"}
        # every sample has exactly 3 keys
        assert all(len(keys) == 3 for keys in member_keys.values())

    def test_coordination_shares_keys_across_samples(self):
        draw = self.fig2_draw()
        summary = build_bottomk_summary(
            FIG2_WEIGHTS, draw, 3, ["w1", "w2", "w3"], FAMILY, mode="colocated"
        )
        # Coordinated: union is much smaller than 9; i1 and i6 appear in all.
        assert summary.n_union <= 5
        i1_row = list(summary.positions).index(0)
        i6_row = list(summary.positions).index(5)
        assert summary.member[i1_row].all()
        assert summary.member[i6_row].all()
