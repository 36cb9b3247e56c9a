"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from workloads import SPECS, make_items, write_workload  # noqa: E402
from xtalssl.structure_io import load_dataset  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_same_seed_gives_byte_identical_cifs(workload, tmp_path):
    write_workload(make_items(workload, 7), tmp_path / "a")
    write_workload(make_items(workload, 7), tmp_path / "b")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = make_items(workload, 8)
    assert [i.cif for i in other] != [i.cif for i in make_items(workload, 7)]


def test_tric_cifs_expand_an_asymmetric_unit(tmp_path):
    items = make_items("tric", 3)
    assert all("'-x, -y, -z'" in item.cif for item in items)
    data = load_dataset(tmp_path, write_workload(items, tmp_path))
    assert {e.structure.n_sites for e in data.entries} == {100}


def test_benchmark_json_names_and_metrics_match_the_runner():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(SPECS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_probed_clock_probes_during_the_call_and_leaves_the_probes_out():
    def spin(n):  # pure Python, so the timer signal is handled during it
        acc = 0
        for i in range(n):
            acc += i
        return acc

    clock = run.ProbedClock(run.probe_compute)
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    wall, probe_s, out = clock(spin, 3_000_000)
    total = time.perf_counter() - t0
    assert out == 3_000_000 * 2_999_999 // 2
    assert len(clock.probes) >= 3  # one before, the rest during the call
    assert probe_s == statistics.mean(clock.probes)
    assert 0 < wall < total - sum(clock.probes[1:]) + 1e-3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_smoke_run_passes_its_output_checks(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _run("--workload", "toy5", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", "tests"))
    proc = _run("--workload", "toy5", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
