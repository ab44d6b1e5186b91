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


def _end_to_end(bound=0.2, **better):
    """BENCHMARK.json's end_to_end entries for ``better`` (name ->
    direction), each with ``bound``."""
    return [{"name": name, "better": direction, "bound": bound}
            for name, direction in better.items()]


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric():
    pairs = _pairs([4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 1.0, 2.0, 2.5, 1.0])
    row = bench_pairs.summarize(pairs, _end_to_end(m="lower"))["m"]
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
    row = bench_pairs.summarize(pairs, _end_to_end(m="higher"))["m"]
    assert row["wins"] == 2 and row["change_median"] == 11.0
    assert row["parent_iqr"] == 0.0


def test_one_pair_and_a_metric_some_run_lacks():
    pairs = _pairs([2.0], [1.0])
    pairs[0]["parent"]["only_parent"] = 1.0
    out = bench_pairs.summarize(pairs, _end_to_end(
        m="lower", only_parent="lower", absent="higher"))
    assert list(out) == ["m"]
    assert (out["m"]["parent_q1"], out["m"]["parent_q3"]) == (2.0, 2.0)
    assert out["m"]["wins"] == 1


def test_noise_wider_than_the_bound_is_unresolved():
    # parent IQR 2.0 against 0.2 of the median 3.0
    pairs = _pairs([4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 1.0, 2.0, 2.5, 1.0])
    row = bench_pairs.summarize(pairs, _end_to_end(m="lower"))["m"]
    assert row["bound"] == 0.2 and row["unresolved"] is True


def test_noise_within_the_bound_is_resolved():
    # parent IQR 0.5 against 0.25 of the median -3.0, the bound's share
    # taken of its size
    pairs = _pairs([-3.5, -3.0, -2.5], [-3.0, -3.0, -3.0])
    row = bench_pairs.summarize(pairs, _end_to_end(0.25, m="higher"))["m"]
    assert row["parent_iqr"] == 0.5
    assert row["bound"] == 0.25 and row["unresolved"] is False


@pytest.mark.parametrize("option", [("--pairs", "0"), ("--seconds", "0"),
                                    ("--seconds", "-1")])
def test_no_pair_or_no_time_refused_before_any_run(monkeypatch, option):
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: pytest.fail("subprocess run"))
    argv = {"--parent": str(ROOT), "--change": str(ROOT),
            "--workload": "sweep", "--pairs": "2", "--seconds": "1",
            "--out": "unused.json"} | dict([option])
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([word for item in argv.items() for word in item])
    assert info.value.code == 2
