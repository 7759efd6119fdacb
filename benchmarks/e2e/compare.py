#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of the same
commit), B the candidate.  One row per workload and end-to-end metric:
both medians over the file's runs, the ratio B/A (base A), by how much B
is worse as a share of A, the metric's bound, both run-to-run spreads
(quartile distance over median), and a label:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  it is not, but a spread is wider than the bound, so "no
                regression" cannot be claimed - unless every run of B
                reads better than every run of A;
``ok``          otherwise.

Exits 1 when any row regressed, 2 when a file holds a failed run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics as M


def metric_values(report: dict, workload: str, metric: str) -> list[float]:
    return [run["end_to_end"][metric]
            for run in report["workloads"][workload]["runs"]
            if metric in run.get("end_to_end", {})]


def judge(metric: M.Metric, a: list[float], b: list[float]) -> dict:
    """One row: medians, ratio, worsening, spreads, label."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (median_b - median_a)
    worse_share = worse / abs(median_a) if median_a else \
        (float("inf") if worse > 0 else 0.0)
    spreads = [M.quartile_spread(a), M.quartile_spread(b)]
    if worse_share > metric.bound:
        label = "regressed"
    elif any(s is not None and s > metric.bound for s in spreads) and not (
            max(b) < min(a) if metric.better == "lower"
            else min(b) > max(a)):
        label = "unresolved"
    else:
        label = "ok"
    return {"a": median_a, "b": median_b,
            "ratio": median_b / median_a if median_a else None,
            "worse_share": worse_share, "spreads": spreads, "label": label}


def compare(report_a: dict, report_b: dict) -> tuple[list[str], int]:
    lines = [f"{'workload':<15}{'metric':<16}{'unit':<6}{'A':>12}{'B':>12}"
             f"{'B/A':>8}{'worse by':>10}{'bound':>8}{'spread A':>10}"
             f"{'spread B':>10}  label"]
    regressed = 0
    for workload in report_a["workloads"]:
        if workload not in report_b["workloads"]:
            lines.append(f"{workload:<15}only in A")
            continue
        for metric in M.END_TO_END:
            a = metric_values(report_a, workload, metric.name)
            b = metric_values(report_b, workload, metric.name)
            if not a or not b:
                continue        # op_p90_s below its sample floor
            row = judge(metric, a, b)
            regressed += row["label"] == "regressed"
            spread_a, spread_b = (
                f"{s:>10.1%}" if s is not None else f"{'-':>10}"
                for s in row["spreads"])
            ratio = f"{row['ratio']:>8.3f}" if row["a"] else f"{'-':>8}"
            lines.append(
                f"{workload:<15}{metric.name:<16}{metric.unit:<6}"
                f"{row['a']:>12.4f}{row['b']:>12.4f}{ratio}"
                f"{row['worse_share']:>+10.1%}{metric.bound:>8.1%}"
                f"{spread_a}{spread_b}  {row['label']}")
    return lines, regressed


def failed_runs(report: dict) -> list[str]:
    return [f"{name} run {i}: {run.get('error') or run['problems'][:1]}"
            for name, entry in report["workloads"].items()
            for i, run in enumerate(entry["runs"])
            if "error" in run or run["failed"]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = [json.loads(Path(path).read_text()) for path in argv]
    for side, path, report in zip("AB", argv, reports):
        print(f"{side}: {path}  commit {report['commit'][:12]}  "
              f"seeds {report['seed']}..{report['seed'] + report['runs'] - 1}"
              f"  nproc {report['nproc']}  python {report['python']}")
    broken = [f"{side}: {text}" for side, report in zip("AB", reports)
              for text in failed_runs(report)]
    for text in broken:
        print(f"failed run - {text}", file=sys.stderr)
    lines, regressed = compare(*reports)
    print("\n".join(lines))
    print(f"{regressed} regressed")
    if broken:
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
