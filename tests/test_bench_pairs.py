"""The summary math of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# parent quartiles (inclusive method) 1.225, 1.45, 1.675: IQR 0.45
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def _shifted(by, losses=0):
    """PARENT less `by`, with the last `losses` pairs lost by 0.1."""
    runs = [x - by for x in PARENT]
    for i in range(len(runs) - losses, len(runs)):
        runs[i] = PARENT[i] + 0.1
    return runs


def test_summary_quartiles_wins_and_ratio():
    change = _shifted(0.5, losses=1)
    s = bench_pairs.summarize(PARENT, change, "s", "lower")
    assert s["unit"] == "s" and s["better"] == "lower"
    assert s["parent"]["runs"] == PARENT and s["change"]["runs"] == change
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == pytest.approx(
        (1.225, 1.45, 1.675)
    )
    # change sorted: 0.5 ... 1.3, 2.0
    assert s["change"]["median"] == pytest.approx(0.95)
    assert s["change_better_in_pairs"] == 9
    assert s["ratio_parent_over_change"] == pytest.approx(1.45 / 0.95)
    assert bench_pairs.gains(s)
    assert bench_pairs.worse_by(s) == pytest.approx(-0.5 / 1.45)


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    lower = bench_pairs.summarize
    # 8 of 10 pairs won
    assert not bench_pairs.gains(lower(PARENT, _shifted(0.5, losses=2), "s", "lower"))
    # every pair won, but the medians 0.4 apart, within the parent's IQR
    s = lower(PARENT, _shifted(0.4), "s", "lower")
    assert s["change_better_in_pairs"] == 10 and not bench_pairs.gains(s)
    # ties count for neither side
    tied = lower(PARENT, PARENT[:1] + _shifted(0.6)[1:], "s", "lower")
    assert tied["change_better_in_pairs"] == 9 and bench_pairs.gains(tied)


def test_higher_is_better_and_the_bound():
    up = [x + 0.5 for x in PARENT]
    s = bench_pairs.summarize(PARENT, up, "1/s", "higher")
    assert s["change_better_in_pairs"] == 10 and bench_pairs.gains(s)
    assert bench_pairs.worse_by(s) == pytest.approx(-0.5 / 1.45)
    s = bench_pairs.summarize(up, PARENT, "1/s", "higher")
    assert s["change_better_in_pairs"] == 0 and not bench_pairs.gains(s)
    assert bench_pairs.worse_by(s) == pytest.approx(0.5 / 1.95)
    assert bench_pairs.verdict("throughput", s, 0.25).endswith(": REGRESSION")
    assert not bench_pairs.verdict("throughput", s, 0.5).endswith(": REGRESSION")


def test_summary_needs_matching_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, PARENT[:-1], "s", "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "s", "lower")
