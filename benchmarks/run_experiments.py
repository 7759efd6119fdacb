#!/usr/bin/env python3
"""Regenerate every experiment table and emit a markdown report.

Usage: python benchmarks/run_experiments.py [--json PATH] [EXPERIMENT_ID ...]

Writes the rendered tables to stdout (text) and to
``benchmarks/results.md`` (markdown) for inclusion in EXPERIMENTS.md;
``--json PATH`` additionally dumps every table's rows as JSON for
dashboards and regression tracking.

``--json`` also stamps a ``BENCH_<runid>.json`` trajectory artifact
next to PATH: a per-run snapshot keyed by a timestamp run id, holding
each experiment's wall seconds, verdict rows, and any throughput
(``props/sec`` / ``designs/sec``) columns — the file CI uploads so a
sequence of runs plots as a trajectory without re-parsing reports.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _experiments import ALL_EXPERIMENTS  # noqa: E402


def main(argv: list[str]) -> int:
    json_path = None
    if "--json" in argv:
        flag = argv.index("--json")
        try:
            json_path = Path(argv[flag + 1])
        except IndexError:
            print("--json needs a path argument")
            return 1
        argv = argv[:flag] + argv[flag + 2:]
    wanted = argv or list(ALL_EXPERIMENTS)
    sections = []
    dumps = {}
    for exp_id in wanted:
        driver = ALL_EXPERIMENTS.get(exp_id.upper())
        if driver is None:
            print(f"unknown experiment {exp_id!r}; "
                  f"available: {sorted(ALL_EXPERIMENTS)}")
            return 1
        start = time.perf_counter()
        table = driver()
        elapsed = time.perf_counter() - start
        print(table.to_text())
        print(f"({exp_id} regenerated in {elapsed:.1f}s)\n")
        sections.append(table.to_markdown() +
                        f"\n*(regenerated in {elapsed:.1f}s)*\n")
        dumps[exp_id.upper()] = {"title": table.title,
                                 "seconds": round(elapsed, 3),
                                 "rows": table.to_rows()}
    out_path = Path(__file__).parent / "results.md"
    out_path.write_text("# Measured experiment tables\n\n" +
                        "\n".join(sections))
    print(f"markdown written to {out_path}")
    if json_path is not None:
        json_path.write_text(json.dumps(dumps, indent=2) + "\n")
        print(f"json written to {json_path}")
        bench_path = _write_trajectory(json_path, dumps)
        print(f"trajectory artifact written to {bench_path}")
    return 0


#: Throughput columns lifted into the trajectory artifact verbatim.
_RATE_COLUMNS = ("props/sec", "designs/sec", "conflicts/sec")


def _write_trajectory(json_path: Path, dumps: dict) -> Path:
    """Stamp the per-run ``BENCH_<runid>.json`` trajectory artifact."""
    run_id = time.strftime("%Y%m%d-%H%M%S")
    experiments = {}
    for exp_id, dump in dumps.items():
        rates = {}
        for row in dump["rows"]:
            label = next(iter(row.values()), "?")
            for column in _RATE_COLUMNS:
                if column in row:
                    rates.setdefault(column, {})[label] = row[column]
        experiments[exp_id] = {
            "seconds": dump["seconds"],
            "throughput": rates,
            "rows": dump["rows"],
        }
    bench_path = json_path.parent / f"BENCH_{run_id}.json"
    bench_path.write_text(json.dumps({
        "run_id": run_id,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "experiments": experiments,
    }, indent=2) + "\n")
    return bench_path


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
