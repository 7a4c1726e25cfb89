import statistics

import pytest

import stats


def test_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize(
    "samples, wanted, used",
    [(4000, 99, 99), (1000, 99, 99), (999, 99, 98), (100, 99, 90), (24, 99, 58), (5, 99, 50)],
)
def test_a_percentile_needs_ten_samples_beyond_it(samples, wanted, used):
    assert stats.supported_percentile(samples, wanted) == used
    assert samples * (100 - used) >= 100 * stats.MIN_SAMPLES_BEYOND or used == 50


def test_percentile_interpolates_like_the_latency_tables():
    from repro.sim.metrics import percentile

    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0, 25, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(percentile(values, q))


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    slower = [v * 1.2 for v in steady]
    assert stats.verdict("lower", 0.1, steady, slower)["verdict"] == "worse"
    assert stats.verdict("lower", 0.1, slower, steady)["verdict"] == "better"
    assert stats.verdict("higher", 0.1, steady, slower)["verdict"] == "better"
    assert stats.verdict("lower", 0.1, steady, [v * 1.05 for v in steady])["verdict"] == "within"
    # worse by 20 % but under the absolute floor
    assert stats.verdict("lower", 0.1, [0.10, 0.10, 0.10], [0.12, 0.12, 0.12], floor=0.1)["verdict"] == "within"


def test_a_noisy_comparison_is_unresolved_never_within():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.5]
    assert stats.verdict("lower", 0.1, noisy, [v * 1.02 for v in noisy])["verdict"] == "unresolved"
    # medians 15 % apart, but the samples overlap
    assert stats.verdict("lower", 0.1, noisy, [v * 1.15 for v in noisy])["verdict"] == "unresolved"
    # ... unless every sample of one side beats every sample of the other
    assert stats.verdict("lower", 0.1, noisy, [v * 2 for v in noisy])["verdict"] == "worse"
    # ... and three a side is too few for that to mean anything
    assert stats.verdict("lower", 0.1, noisy[:3], [v * 2 for v in noisy[:3]])["verdict"] == "unresolved"
    # one sample a side says nothing about spread
    assert stats.verdict("lower", 0.1, [1.0], [1.05])["verdict"] == "unresolved"
    assert stats.verdict("lower", 0.1, [1.0], [1.0])["verdict"] == "within"
