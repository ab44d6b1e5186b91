"""``tools/bench_pairs.py``: the summary of parent/change benchmark pairs.
Only the pure ``summarize`` is tested; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="m"):
    return [{"parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric():
    pairs = _pairs([4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 1.0, 2.0, 2.5, 1.0])
    row = bench_pairs.summarize(pairs, {"m": "lower"})["m"]
    assert row["parent_median"] == 3.0 and row["change_median"] == 2.0
    assert row["change_rel"] == pytest.approx(-1.0 / 3.0)
    # inclusive quartiles of 1..5
    assert (row["parent_q1"], row["parent_q3"]) == (2.0, 4.0)
    assert row["parent_iqr"] == 2.0
    # a tie is no win, a worse pair neither
    assert row["wins"] == 3 and row["pairs"] == 5
    assert row["better"] == "lower"


def test_higher_is_better_counts_the_other_way():
    pairs = _pairs([10.0, 10.0, 10.0], [11.0, 9.0, 12.0])
    row = bench_pairs.summarize(pairs, {"m": "higher"})["m"]
    assert row["wins"] == 2 and row["change_median"] == 11.0
    assert row["parent_iqr"] == 0.0


def test_one_pair_and_a_metric_some_run_lacks():
    pairs = _pairs([2.0], [1.0])
    pairs[0]["parent"]["only_parent"] = 1.0
    out = bench_pairs.summarize(pairs, {"m": "lower", "only_parent": "lower",
                                        "absent": "higher"})
    assert list(out) == ["m"]
    assert (out["m"]["parent_q1"], out["m"]["parent_q3"]) == (2.0, 2.0)
    assert out["m"]["wins"] == 1
