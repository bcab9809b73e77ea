"""The tail-percentile rule and the summary statistics."""
import pytest

import stats


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, percentile):
    assert stats.tail_percentile(n) == percentile
    values = list(range(n, 0, -1))  # unsorted on purpose
    t = stats.tail(values, percentile)
    assert t["beyond"] == sum(v > t["value"] for v in values)
    assert t["beyond"] >= 10 and t["rule_met"]
    higher = [p for p in stats.TAIL_LADDER if p > percentile]
    assert all(not stats.tail(values, p)["rule_met"] for p in higher)


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_is_the_median_below_twenty_samples(n):
    assert stats.tail_percentile(n) == 50.0
    t = stats.tail([3.0] * (n - 1) + [7.0], 50.0)
    assert t["value"] == (7.0 if n == 1 else 3.0)
    assert t["percentile"] == 50.0 and t["n"] == n and not t["rule_met"]


def test_tail_of_the_maximum():
    t = stats.tail([3.0, 9.0, 5.0], 100.0)
    assert (t["value"], t["beyond"], t["rule_met"]) == (9.0, 0, False)


def test_tail_keeps_its_percentile_as_samples_grow():
    t = stats.tail(range(1, 401), 90.0)
    assert (t["value"], t["beyond"]) == (360, 40)


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.tail([], 90.0)


def test_summary_and_spread():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert s["q1"] < s["median"] < s["q3"]
    assert stats.relative_spread([2.0, 2.0, 2.0]) == 0.0
    assert stats.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
