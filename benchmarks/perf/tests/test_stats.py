import pytest

from benchmarks.perf.stats import (
    TooFewSamples, min_samples, profile, profile_percentile, quantile,
    rel_iqr, rel_range,
)


def test_quantile_interpolates():
    samples = list(range(1, 101))  # 1..100
    assert quantile(samples, 50) == 50.5
    assert quantile(samples, 90) == pytest.approx(90.1)
    assert quantile(samples[::-1], 90) == pytest.approx(90.1)


def test_minimum_sample_rule():
    # five samples must lie beyond the reported percentile
    assert (min_samples(50), min_samples(90), min_samples(95)) == (10, 50, 100)
    assert min_samples(10) == min_samples(90)
    with pytest.raises(ValueError):
        min_samples(100)
    with pytest.raises(TooFewSamples):
        profile_percentile([list(range(49))], 90)
    assert profile_percentile([list(range(50))], 90)[0] == pytest.approx(44.1)
    with pytest.raises(TooFewSamples):
        profile_percentile([list(range(9))], 50)


def test_profile_is_the_fastest_round_at_each_position():
    clean = [1.0, 2.0, 3.0, 4.0]
    early = [9.0, 9.0, 3.0, 4.0]  # a burst over the first two ops
    late = [1.0, 2.0, 9.0, 9.0]   # and one over the last two
    assert profile([early, late]) == clean
    assert profile([early, early, late]) == clean


def test_profile_percentile_counts_every_measurement():
    rounds = [[float(v) for v in range(10)]] * 5  # ten fresh queries a round
    value, samples = profile_percentile(rounds, 90)
    assert samples == 50
    assert value == pytest.approx(8.1)
    with pytest.raises(TooFewSamples):
        profile_percentile(rounds[:4], 90)


def test_spreads():
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 30.0]
    assert rel_range(values) == pytest.approx(2.1)
    assert rel_iqr(values) < 1.0  # the quartiles ignore the one outlier
    assert rel_iqr([5.0]) == 0.0
