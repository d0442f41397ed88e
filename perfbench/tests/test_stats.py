"""The tail rule: the highest of p99/p90 with at least ten samples beyond."""

import pytest

import stats


def test_p99_needs_ten_samples_beyond():
    value, label, n_beyond = stats.tail(range(1, 1001))
    assert (value, label, n_beyond) == (990, "p99", 10)


def test_falls_back_to_p90_below_a_thousand_samples():
    value, label, n_beyond = stats.tail(range(1, 1000))
    assert label == "p90"
    assert value == 900
    assert n_beyond == 99


def test_p90_needs_a_hundred_samples():
    assert stats.tail(range(1, 101))[1:] == ("p90", 10)
    value, label, n_beyond = stats.tail(range(1, 100))
    assert (value, label, n_beyond) == (99, "max", 0)


def test_tail_ignores_input_order():
    data = [5.0, 1.0, 9.0] * 400
    assert stats.tail(data) == stats.tail(sorted(data))


def test_percentile_nearest_rank():
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2
    assert stats.percentile([1, 2, 3, 4], 1.0) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_block_rates_time_each_block_from_the_previous_one():
    done = [(1.0, 2), (2.0, 2), (2.5, 4), (4.0, 4), (9.0, 100)]
    assert stats.block_rates(done, 2, 0.0) == pytest.approx([4 / 2.0, 8 / 2.0])
    with pytest.raises(ValueError):
        stats.block_rates(done[:1], 2, 0.0)
