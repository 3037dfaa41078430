"""Tests for AdjustedWeights and estimator plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.base import AdjustedWeights


class TestAdjustedWeights:
    def test_total(self):
        aw = AdjustedWeights(np.array([0, 2]), np.array([1.5, 2.5]))
        assert aw.total() == 4.0
        assert len(aw) == 2

    def test_subpopulation_reads_mask_at_positions(self):
        aw = AdjustedWeights(np.array([0, 2, 4]), np.array([1.0, 2.0, 4.0]))
        mask = np.array([True, False, False, True, True])
        assert aw.subpopulation(mask) == 5.0

    def test_dense(self):
        aw = AdjustedWeights(np.array([1, 3]), np.array([2.0, 5.0]))
        np.testing.assert_array_equal(aw.dense(5), [0, 2.0, 0, 5.0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            AdjustedWeights(np.array([0, 1]), np.array([1.0]))

    def test_squared_error_sum_identity(self):
        """Must equal the naive dense computation."""
        rng = np.random.default_rng(0)
        f = rng.random(10)
        positions = np.array([1, 4, 7])
        values = rng.random(3) * 3
        aw = AdjustedWeights(positions, values)
        dense = aw.dense(10)
        naive = float(((dense - f) ** 2).sum())
        assert aw.squared_error_sum(f) == pytest.approx(naive)

    def test_squared_error_sum_zero_when_exact(self):
        f = np.array([0.0, 2.0, 0.0])
        aw = AdjustedWeights(np.array([1]), np.array([2.0]))
        assert aw.squared_error_sum(f) == pytest.approx(0.0)

    def test_ratio_estimate(self):
        """Σ a(i)·h(i)/f(i) estimates Σ h — here checked arithmetically."""
        aw = AdjustedWeights(np.array([0, 1]), np.array([4.0, 6.0]))
        h_over_f = np.array([0.5, 2.0, 1.0])
        mask = np.array([True, True, True])
        assert aw.ratio_estimate(mask, h_over_f) == pytest.approx(4 * 0.5 + 6 * 2)

    def test_ratio_estimate_respects_mask(self):
        aw = AdjustedWeights(np.array([0, 1]), np.array([4.0, 6.0]))
        h_over_f = np.array([0.5, 2.0])
        mask = np.array([False, True])
        assert aw.ratio_estimate(mask, h_over_f) == pytest.approx(12.0)
