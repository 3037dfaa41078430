"""Unit tests for the temporal query primitives and the scaling transform.

Covers :mod:`repro.service.temporal` (duration parsing, window
resolution, decay factors) and the ``scaled()`` transform on sketches and
bundles that makes time-decayed weights exact under merge.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler
from repro.service.config import NamespaceConfig
from repro.service.temporal import (
    MIN_DECAY_FACTOR,
    decay_factor,
    format_duration,
    parse_duration,
    resolve_windows,
)

UTC = timezone.utc


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=UTC)


class TestParseDuration:
    @pytest.mark.parametrize("spec,expect", [
        ("90s", 90.0), ("15m", 900.0), ("1.5h", 5400.0), ("2d", 172800.0),
        ("45", 45.0), (45, 45.0), (0.5, 0.5), ("  10 m ", 600.0),
    ])
    def test_accepts(self, spec, expect):
        assert parse_duration(spec) == expect

    @pytest.mark.parametrize("spec", [
        "", "m", "-5m", "5w", "nan", "inf", 0, -1.0, float("nan"),
        float("inf"), True,
    ])
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_duration(spec)

    @pytest.mark.parametrize("seconds,expect", [
        (900.0, "15m"), (5400.0, "90m"), (86400.0, "1d"), (90.0, "90s"),
        (0.5, "0.5s"),
    ])
    def test_format_round_trips(self, seconds, expect):
        assert format_duration(seconds) == expect
        assert parse_duration(expect) == seconds


class TestResolveWindows:
    def test_tumbling_covers_span_without_overlap(self):
        windows = resolve_windows(
            utc(2026, 7, 28, 12, 0), utc(2026, 7, 28, 12, 5), 60.0
        )
        assert len(windows) == 5
        for (_, prev_end), (start, _) in zip(windows, windows[1:]):
            assert start == prev_end  # no gap, no overlap
        assert windows[0][1] > utc(2026, 7, 28, 12, 0)
        assert windows[-1][1] >= utc(2026, 7, 28, 12, 5)

    def test_sliding_windows_step_by_step(self):
        windows = resolve_windows(
            utc(2026, 7, 28, 12, 0), utc(2026, 7, 28, 12, 10), 300.0, 60.0
        )
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert (e2 - e1).total_seconds() == 60.0
            assert (e1 - s1).total_seconds() == 300.0
        # every window intersects the data span
        assert all(e > utc(2026, 7, 28, 12, 0) for _, e in windows)
        assert all(s < utc(2026, 7, 28, 12, 10) for s, _ in windows)

    def test_ends_are_step_aligned(self):
        # Data starting mid-step still yields windows on the step grid —
        # the series is a stable function of the data, not of the caller.
        windows = resolve_windows(
            utc(2026, 7, 28, 12, 0, 37), utc(2026, 7, 28, 12, 3, 2),
            120.0, 60.0,
        )
        for _start, end in windows:
            assert end.timestamp() % 60.0 == 0.0

    def test_anchor_pins_last_end(self):
        anchor = utc(2026, 7, 28, 12, 4, 30)
        windows = resolve_windows(
            utc(2026, 7, 28, 12, 0), utc(2026, 7, 28, 12, 4), 120.0, 60.0,
            anchor=anchor,
        )
        assert windows[-1][1] == anchor
        for _start, end in windows:  # off-grid anchor shifts the series
            assert end.timestamp() % 60.0 == 30.0

    def test_step_exceeding_window_is_rejected(self):
        with pytest.raises(ValueError, match="must not exceed"):
            resolve_windows(utc(2026, 1, 1), utc(2026, 1, 2), 60.0, 120.0)

    def test_empty_span_yields_no_windows(self):
        t = utc(2026, 7, 28, 12, 0)
        assert resolve_windows(t, t, 60.0) == []

    @settings(deadline=None, max_examples=50)
    @given(
        span=st.floats(min_value=1.0, max_value=86_400.0),
        window=st.floats(min_value=1.0, max_value=3_600.0),
        ratio=st.floats(min_value=0.05, max_value=1.0),
        offset=st.floats(min_value=0.0, max_value=86_400.0),
    )
    def test_every_instant_is_covered(self, span, window, ratio, offset):
        """No instant of the data span falls outside every window."""
        lo = 1_767_225_600.0 + offset
        hi = lo + span
        # floor the step so one example never resolves millions of windows
        step = max(window * ratio, span / 2000.0, 1e-3)
        step = min(step, window)
        windows = resolve_windows(lo, hi, window, step)
        assert windows, "non-empty span must resolve to windows"
        starts = [s.timestamp() for s, _ in windows]
        ends = [e.timestamp() for _, e in windows]
        assert min(starts) <= lo + 1e-6
        assert max(ends) >= hi - 1e-6
        # consecutive windows never leave a gap
        for (_, e1), (s2, _) in zip(windows, windows[1:]):
            assert s2 <= e1


class TestDecayFactor:
    def test_half_life_halves(self):
        t0 = utc(2026, 7, 28, 12, 0)
        assert decay_factor(t0, t0, 3600.0) == 1.0
        one_hl = decay_factor(t0, utc(2026, 7, 28, 13, 0), 3600.0)
        two_hl = decay_factor(t0, utc(2026, 7, 28, 14, 0), 3600.0)
        assert one_hl == 0.5 and two_hl == 0.25

    def test_future_buckets_boost(self):
        t0 = utc(2026, 7, 28, 12, 0)
        assert decay_factor(utc(2026, 7, 28, 13, 0), t0, 3600.0) == 2.0

    def test_extreme_ages_clamp(self):
        t0 = 0.0
        ancient = decay_factor(t0, 1e13, 1.0)
        assert ancient == MIN_DECAY_FACTOR
        future = decay_factor(1e13, t0, 1.0)
        assert future == 1.0 / MIN_DECAY_FACTOR
        assert math.isfinite(1.0 / ancient)  # rank/f can never overflow

    @pytest.mark.parametrize("hl", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_half_life(self, hl):
        with pytest.raises(ValueError):
            decay_factor(0.0, 1.0, hl)


NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=13)

_weights = st.floats(
    min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False
)


def _sketch(keys, weights, family="exp", k=4):
    families = {"exp": ExponentialRanks(), "ipps": IppsRanks()}
    sampler = BottomKStreamSampler(
        k=k, family=families[family], hasher=KeyHasher(5)
    )
    for key, weight in zip(keys, weights):
        sampler.process(key, weight)
    return sampler.sketch()


class TestScaledSketches:
    @pytest.mark.parametrize("family", ["exp", "ipps"])
    def test_scaled_preserves_membership_and_order(self, family):
        rng = np.random.default_rng(7)
        sketch = _sketch(range(20), rng.pareto(1.3, 20) + 0.1, family)
        scaled = sketch.scaled(0.25)
        assert list(scaled.keys) == list(sketch.keys)
        np.testing.assert_array_equal(scaled.ranks, sketch.ranks / 0.25)
        np.testing.assert_array_equal(scaled.weights, sketch.weights * 0.25)
        assert scaled.kth_rank == sketch.kth_rank / 0.25
        assert scaled.threshold == sketch.threshold / 0.25

    def test_scaled_merge_commutes(self):
        """scale-then-merge == merge-then-scale, bit for bit."""
        rng = np.random.default_rng(11)
        a = _sketch(range(0, 15), rng.pareto(1.3, 15) + 0.1)
        b = _sketch(range(100, 115), rng.pareto(1.3, 15) + 0.1)
        lhs = a.scaled(0.5).merge(b.scaled(0.5))
        rhs = a.merge(b).scaled(0.5)
        np.testing.assert_array_equal(lhs.ranks, rhs.ranks)
        np.testing.assert_array_equal(lhs.weights, rhs.weights)
        assert list(lhs.keys) == list(rhs.keys)
        assert lhs.threshold == rhs.threshold

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_invalid_factor(self, factor):
        sketch = _sketch(range(5), [1.0] * 5)
        with pytest.raises(ValueError):
            sketch.scaled(factor)

    def test_bundle_scaled_identity_shortcut(self):
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi([1, 2, 3], {
            "h1": np.array([1.0, 2.0, 3.0]),
            "h2": np.array([3.0, 2.0, 1.0]),
        })
        bundle = summarizer.sketch_bundle()
        assert bundle.scaled(1.0) is bundle
        assert bundle.scaled(0.5) is not bundle

    def test_exact_when_sketch_holds_everything(self):
        """With k >= n the sample is the population: sums are exact, so a
        scaled bundle's estimates equal the directly scaled sums."""
        keys = list(range(5))
        w1 = [1.5, 2.0, 0.25, 4.0, 8.0]
        w2 = [0.5, 1.0, 3.0, 2.0, 1.0]
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi(
            keys, {"h1": np.asarray(w1), "h2": np.asarray(w2)}
        )
        factor = 0.125  # power of two: w * factor is exact per value
        engine = QueryEngine.from_bundles(
            [summarizer.sketch_bundle()], scales=[factor]
        )
        spec = AggregationSpec("max", ("h1", "h2"))
        expect = sum(max(a * factor, b * factor) for a, b in zip(w1, w2))
        assert engine.estimate(spec) == pytest.approx(expect, rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(1, 12),
        factor=st.sampled_from([0.5, 0.25, 2.0, 0.125]),
        seed=st.integers(0, 2**31),
    )
    def test_from_bundles_scales_matches_manual_scaling(
        self, n, factor, seed
    ):
        rng = np.random.default_rng(seed)
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi(list(range(n)), {
            "h1": rng.pareto(1.3, n) + 0.01,
            "h2": rng.pareto(1.5, n) + 0.01,
        })
        bundle = summarizer.sketch_bundle()
        spec = AggregationSpec("l1", ("h1", "h2"))
        via_scales = QueryEngine.from_bundles([bundle], scales=[factor])
        via_method = QueryEngine.from_bundles([bundle.scaled(factor)])
        assert (
            via_scales.estimate(spec) == via_method.estimate(spec)
        )

    def test_from_bundles_scales_length_mismatch(self):
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi([1], {
            "h1": np.array([1.0]), "h2": np.array([1.0]),
        })
        bundle = summarizer.sketch_bundle()
        with pytest.raises(ValueError):
            QueryEngine.from_bundles([bundle], scales=[0.5, 0.5])
