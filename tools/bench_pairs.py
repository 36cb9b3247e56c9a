#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads super40 tric --seeds 13 --pairs 10 \\
        --title "what the change does" --out BENCH_pretrain.json

Both arguments are checkouts of this repository.  For each workload and
seed the script runs ``perfbench/run.py`` from each checkout in turn, one
process at a time: even pairs run the parent first, odd pairs the change
first.  Per end-to-end metric of ``BENCHMARK.json`` it records every run,
the median and quartiles of each side, the pairs the change wins and the
ratio of the medians.  Per phase it also records the median of each run's
raw call times (``samples.<phase>.wall_s`` in the run's
``perfbench/_out`` file, wall time less the in-call probes) and the same
summary of those.

Each summary states two verdicts:

- ``claim_rule_met``: the change wins at least nine tenths of the pairs,
  ties counting for neither side, and its median is better than the
  parent's by more than the parent's interquartile range.  A gain may be
  claimed only where this holds.
- ``within_bound`` (end-to-end metrics only): the change's median is worse
  than the parent's by no more than the metric's ``bound`` in
  ``BENCHMARK.json``, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PROTOCOL = ("alternating parent/change pairs, one process at a time on the same machine; "
            "even pairs run the parent first, odd pairs the change first; "
            "each side runs from its own checkout")
SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark process: its result line, environment, run length and raw wall medians."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    out_file = os.path.join(checkout, "perfbench", "_out", f"{workload}-seed{seed}-trace0.json")
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if not os.path.exists(out_file) or os.path.getmtime(out_file) < started:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} did not write {out_file}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out_file, encoding="utf-8") as fh:
        info = json.load(fh)
    result["environment"] = info["environment"]
    result["seconds"] = info["seconds"]
    result["wall_s"] = {phase: statistics.median(s["wall_s"]) if s["wall_s"] else None
                        for phase, s in info["samples"].items()}
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    sides = {"parent": summary(parent), "change": summary(change)}
    gain = sides["change"]["median"] - sides["parent"]["median"]
    if better == "lower":
        gain = -gain
    return sides | {
        "change_wins": wins,
        "median_ratio_change_over_parent": sides["change"]["median"] / sides["parent"]["median"],
        "claim_rule_met": 10 * wins >= 9 * len(parent)
                          and gain > sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def within_bound(result: dict, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by at most ``bound`` of it."""
    parent, change = result["parent"]["median"], result["change"]["median"]
    if better == "higher":
        return change >= parent * (1.0 - bound)
    return change <= parent * (1.0 + bound)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--title", required=True, help="one line saying what the change does")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    runs, environment, commits, seconds = [], None, {}, set()
    for workload in args.workloads:
        for seed in args.seeds:
            results = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    res = run_once(checkouts[side], workload, seed)
                    results[side].append(res)
                    commits[side] = res["environment"].get("git_sha")
                    seconds.add(res["seconds"])
                    environment = environment or res["environment"]
                    print(f"{workload} seed {seed} pair {pair} {side}: correct={res['correct']} "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                          flush=True)
            metrics = {}
            for m in end_to_end:
                per_side = [[r["metrics"][m["name"]]["value"] for r in results[s]] for s in SIDES]
                result = compare(*per_side, m["better"])
                metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                      "bound": m["bound"]} | result | {
                    "within_bound": within_bound(result, m["better"], m["bound"])}
            phases = results["parent"][0]["wall_s"]
            walls = {phase: {"unit": "s", "better": "lower"}
                     | compare(*[[r["wall_s"][phase] for r in results[s]] for s in SIDES], "lower")
                     for phase in phases
                     if all(r["wall_s"][phase] is not None for s in SIDES for r in results[s])}
            runs.append({
                "workload": workload, "seed": seed, "pairs": args.pairs,
                **{key: {s: f(results[s]) for s in SIDES} for key, f in (
                    ("correct", lambda rs: all(r["correct"] for r in rs)),
                    ("failed", lambda rs: sum(r["failed"] for r in rs)),
                    ("attempted", lambda rs: sum(r["attempted"] for r in rs)))},
                "metrics": metrics,
                "raw_call_wall_s_median": walls,
            })

    environment = {k: v for k, v in environment.items() if k != "git_sha"} | {"cpu": cpu_model()}
    bench = {
        "change": args.title,
        "parent_commit": commits.get("parent"),
        "change_commit": commits.get("change"),
        "command": "python3 perfbench/run.py --workload W --seed S",
        "run_seconds": seconds.pop() if len(seconds) == 1 else sorted(seconds),
        "trace": 0,
        "protocol": PROTOCOL,
        "environment": environment,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
