"""The verdicts ``tools/bench_pairs.py`` writes into each BENCH_*.json summary."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent runs: median 104.5, quartiles 102.25 and 106.75, so an IQR of 4.5
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def _shifted(by, losses=0):
    """PARENT moved by ``by``, with the last ``losses`` pairs moved the other way."""
    return [p + (by if i < len(PARENT) - losses else -by) for i, p in enumerate(PARENT)]


def test_a_tie_is_not_a_win():
    result = bench_pairs.compare(PARENT, list(PARENT), "higher")
    assert result["change_wins"] == 0
    assert result["median_ratio_change_over_parent"] == 1.0
    assert not result["claim_rule_met"]


@pytest.mark.parametrize("losses, met", [(0, True), (1, True), (2, False)])
def test_nine_tenths_of_the_pairs_must_be_won(losses, met):
    result = bench_pairs.compare(PARENT, _shifted(20.0, losses), "higher")
    assert result["change_wins"] == 10 - losses
    assert result["change"]["median"] - result["parent"]["median"] > 4.5
    assert result["claim_rule_met"] is met


@pytest.mark.parametrize("by, met", [(4.0, False), (5.0, True)])
def test_the_median_gap_must_exceed_the_parents_interquartile_range(by, met):
    result = bench_pairs.compare(PARENT, _shifted(by), "higher")
    assert result["parent"]["q3"] - result["parent"]["q1"] == 4.5
    assert result["change_wins"] == 10
    assert result["claim_rule_met"] is met


@pytest.mark.parametrize("better, by", [("higher", 20.0), ("lower", -20.0)])
def test_better_sets_which_way_wins(better, by):
    wins = bench_pairs.compare(PARENT, _shifted(by), better)
    losses = bench_pairs.compare(PARENT, _shifted(-by), better)
    assert (wins["change_wins"], wins["claim_rule_met"]) == (10, True)
    assert (losses["change_wins"], losses["claim_rule_met"]) == (0, False)


@pytest.mark.parametrize("better, ratio, within", [
    ("higher", 0.76, True), ("higher", 0.74, False), ("higher", 2.0, True),
    ("lower", 1.24, True), ("lower", 1.26, False), ("lower", 0.5, True),
])
def test_within_bound_measures_the_worse_direction(better, ratio, within):
    change = [p * ratio for p in PARENT]
    result = bench_pairs.compare(PARENT, change, better)
    assert bench_pairs.within_bound(result, better, 0.25) is within


WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]  # IQR 45 of 105


@pytest.mark.parametrize("better, change, unresolved", [
    ("higher", [p + 1.0 for p in WIDE], True),
    ("higher", [151.0 + i for i in range(10)], False),
    ("higher", [150.0 + i for i in range(10)], True),
    ("lower", [p - 1.0 for p in WIDE], True),
    ("lower", [59.0 - i for i in range(10)], False),
])
def test_a_spread_wider_than_the_bound_is_unresolved(better, change, unresolved):
    result = bench_pairs.compare(WIDE, change, better)
    assert bench_pairs.unresolved(result, better, 0.25) is unresolved


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_spread_within_the_bound_is_resolved(better):
    # PARENT's IQR is 4.5 of 104.5; the change overlaps it and still resolves
    result = bench_pairs.compare(PARENT, list(reversed(PARENT)), better)
    assert not bench_pairs.unresolved(result, better, 0.25)
    assert bench_pairs.unresolved(result, better, 0.04)


def test_main_prints_one_row_per_workload_and_metric(tmp_path, monkeypatch, capsys):
    # canned runs, no benchmark: the change is 10% faster at pretraining and
    # reads the parent's values on every other metric
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = iter(range(1000))

    def run_once(checkout, workload, seed):
        i = next(calls)
        pretrain = 100.0 + i // 2 + (10.0 if checkout == str(ROOT) else 0.0)
        return {"correct": True, "failed": 0, "attempted": 4,
                "metrics": {n: {"value": pretrain if n == "pretrain_xtals_per_s" else 50.0}
                            for n in names},
                "environment": {"git_sha": checkout[-6:]}, "seconds": 20, "wall_s": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT), "--workloads",
                             "toy5", "tric", "--seeds", "3", "--pairs", "4", "--title", "canned",
                             "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    table = printed[-(1 + 2 * len(names)):]
    assert table[0].split() == ["workload", "seed", "metric", "parent_median", "parent_iqr",
                                "change_median", "ratio", "wins", "claim_rule_met",
                                "within_bound", "unresolved"]
    rows = [row.split() for row in table[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [(w, "3", n) for w in ("toy5", "tric")
                                                  for n in names]
    pretrain = rows[names.index("pretrain_xtals_per_s")]
    # toy5 parent runs 100, 101, 102, 103 against the change's 110..113
    assert pretrain[3:] == ["101.5", "1.5", "111.5", "1.099", "4/4", "True", "True", "False"]
    flat = rows[names.index("setup_s")]
    assert flat[3:] == ["50", "0", "50", "1.000", "0/4", "False", "True", "False"]
    assert json.loads(out.read_text())["runs"][0]["metrics"]["pretrain_xtals_per_s"][
        "claim_rule_met"]


def test_main_prints_the_raw_call_walls_before_the_metrics(tmp_path, monkeypatch, capsys):
    # canned raw walls: the change's pretrain call is 20% slower while its
    # probe-scaled throughput reads 10% faster, and featurize is unchanged
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = iter(range(1000))

    def run_once(checkout, workload, seed):
        i, change = next(calls), checkout == str(ROOT)
        return {"correct": True, "failed": 0, "attempted": 4,
                "metrics": {n: {"value": 110.0 if change and n == "pretrain_xtals_per_s"
                                else 100.0} for n in names},
                "environment": {"git_sha": checkout[-6:]}, "seconds": 20,
                "wall_s": {"pretrain": (0.24 if change else 0.20) + 0.001 * (i // 2),
                           "featurize": 0.05}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT), "--workloads",
                             "toy5", "--pairs", "4", "--title", "canned", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    start = printed.index(next(line for line in printed if line.startswith("workload")))
    assert printed[start].split() == ["workload", "seed", "raw_wall_s", "parent_median",
                                      "parent_iqr", "change_median", "ratio", "wins"]
    rows = [row.split() for row in printed[start + 1:start + 3]]
    # parent walls 0.200, 0.201, 0.202, 0.203 against the change's 0.240..0.243
    assert rows[0] == ["toy5", "0", "pretrain", "0.2015", "0.0015", "0.2415", "1.199", "0/4"]
    assert rows[1] == ["toy5", "0", "featurize", "0.05", "0", "0.05", "1.000", "0/4"]
    assert printed[start + 3] == ""
    # the metric table follows, as before
    assert printed[start + 4].split()[:3] == ["workload", "seed", "metric"]
    assert len(printed) == start + 5 + len(names)
    saved = json.loads(out.read_text())["runs"][0]["raw_call_wall_s_median"]
    assert saved["pretrain"]["change_wins"] == 0


def test_main_stops_at_a_run_without_a_commit(tmp_path, monkeypatch):
    # a git archive copy has no .git, so its runs report git_sha null
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed):
        calls.append(checkout)
        return {"correct": True, "failed": 0, "attempted": 4,
                "metrics": {n: {"value": 50.0} for n in names},
                "environment": {"git_sha": None if checkout == str(tmp_path) else "abc123"},
                "seconds": 20, "wall_s": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_test.json"
    with pytest.raises(SystemExit, match="^" + re.escape(f"{tmp_path}: perfbench/run.py reported no git commit")):
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(ROOT), "--workloads",
                          "toy5", "--pairs", "4", "--title", "canned", "--out", str(out)])
    # the parent runs first, and nothing is written
    assert calls == [str(tmp_path)]
    assert not out.exists()
