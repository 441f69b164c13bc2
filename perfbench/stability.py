#!/usr/bin/env python3
"""Stability report: run workloads repeatedly and show the spread.

Usage (from the repository root)::

    python3 perfbench/stability.py --runs 10
    python3 perfbench/stability.py --workloads diff-rescan --runs 5

Runs each workload ``--runs`` times, each in a fresh process with its
own seed, and prints per end-to-end metric the median and the spread
(interquartile range over median, as ``statistics.quantiles(n=4)``
gives it) of the reference-normalized value next to the raw wall
value.  A run that fails or reports ``correct: false`` is listed and
makes the script exit 1.  Workloads, metrics and the default run
length come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import declaration  # noqa: E402


def spread(values: list[float]) -> float:
    """IQR over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return {"returncode": out.returncode, "stderr": out.stderr[-2000:]}
    return {"returncode": 0, "result": json.loads(lines[-1]),
            **json.loads(lines[-2])}


def raw_values(run: dict) -> dict[str, float]:
    """The raw wall counterpart of each end-to-end metric."""
    detail = run["detail"]
    raw = detail["summary"]["raw"]
    return {"setup_s": statistics.median(detail["setup"]["raw_s"]),
            "peak_rss_mb": detail["end_to_end"]["peak_rss_mb"],
            "cases_per_s": raw["cases_per_s"], "p50_ms": raw["p50_ms"],
            "tail_ms": raw["tail_ms"]}


def report(workload: str, runs: list[dict],
           metrics: list[str]) -> list[str]:
    good = [r for r in runs if r["returncode"] == 0
            and r["result"]["correct"]]
    lines = [f"{workload}: {len(good)}/{len(runs)} runs correct"]
    if len(good) < 2:
        return lines
    lines.append(f"  {'metric':<12} {'median':>10} {'iqr/med':>8}"
                 f" {'raw median':>11} {'raw iqr/med':>11}")
    for name in metrics:
        norm = [r["result"]["metrics"][name]["value"] for r in good]
        raw = [raw_values(r)[name] for r in good]
        lines.append(f"  {name:<12} {statistics.median(norm):>10.3f}"
                     f" {spread(norm):>8.3f}"
                     f" {statistics.median(raw):>11.3f}"
                     f" {spread(raw):>11.3f}")
    contaminated = sum(r["detail"]["summary"]["ref_contaminated"]
                       for r in good)
    refs = sum(r["detail"]["summary"]["refs"] for r in good)
    lines.append(f"  references contaminated: {contaminated}/{refs}")
    return lines


def main(argv: list[str] | None = None) -> int:
    declared = declaration()
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=workloads,
                        choices=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = [m["name"] for m in declared["end_to_end"]]
    ok = True
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            if run["returncode"] != 0 or not run["result"]["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED "
                      f"{run.get('result') or run.get('stderr')}",
                      flush=True)
        print("\n".join(report(workload, runs, metrics)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
