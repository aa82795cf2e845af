"""The summary math of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import json
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


def test_traced_summary_takes_the_median_of_the_pair_ratios():
    # the host slows both sides of the last pairs alike: the sides' medians
    # move with it, the ratio within each pair does not
    parent = [10.0, 10.0, 10.0, 20.0, 30.0]
    change = [9.0, 8.0, 9.5, 18.0, 27.0]
    s = bench_pairs.traced_summary(parent, change)
    assert s["parent"] == parent and s["change"] == change
    # ratios 0.9, 0.8, 0.95, 0.9, 0.9
    assert s["median_change_over_parent"] == pytest.approx(0.9)
    # an even number of pairs takes the mean of the middle two ratios
    s = bench_pairs.traced_summary([2.0, 4.0], [1.0, 4.0])
    assert s["median_change_over_parent"] == pytest.approx(0.75)


def test_traced_summary_without_a_ratio_where_the_parent_reads_zero():
    s = bench_pairs.traced_summary([0.0, 3.0], [1.0, 3.0])
    assert s["median_change_over_parent"] is None
    with pytest.raises(ValueError):
        bench_pairs.traced_summary([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        bench_pairs.traced_summary([], [])


def test_traced_section_records_the_pair_ratios(monkeypatch, tmp_path, capsys):
    # synthetic runs: the change halves invariance_ms, the host slows the
    # later pairs on both sides, and every other layer reads 0
    names = [m["name"] for m in json.loads((_PATH.parent.parent / "BENCHMARK.json")
                                           .read_text())["per_layer"]]
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        assert trace == 1
        pair = len(calls) // 2
        calls.append(checkout.name)
        slow = 1.0 + pair
        ms = 40.0 * slow if checkout.name == "parent" else 20.0 * slow
        values = dict.fromkeys(names, 0.0)
        values["limitset.invariance_ms"] = ms
        env = {"commit": checkout.name, "source_sha256": checkout.name}
        return values, {}, env

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"parent": {"commit": "parent", "source_sha256": "parent"},
                               "change": {"commit": "change", "source_sha256": "change"}}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "limitset-fractal", "--pairs", "4",
                             "--section", "traced", "--out", str(out)]) == 0
    # alternated: the parent first in even pairs
    assert calls == ["parent", "change", "change", "parent"] * 2
    layers = json.loads(out.read_text())["traced"]["workloads"]["limitset-fractal"]
    assert list(layers) == ["limitset.invariance_ms"]
    assert layers["limitset.invariance_ms"]["median_change_over_parent"] == pytest.approx(0.5)
    assert "median change/parent 0.5000" in capsys.readouterr().out
