"""Smoke test of the end-to-end benchmark (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs the cheapest workload untraced and traced, and holds the output
schema, BENCHMARK.json and the metric tables together.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(out: Path, *args: str) -> tuple[dict, dict]:
    """(the driver's result line, the result file) of one invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "campaign_warm", "--seed", "1", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return (json.loads(proc.stdout.splitlines()[-1]),
            json.loads(out.read_text()))


def check_line(line: dict, declared: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reading = line["metrics"][metric["name"]]
        assert set(reading) == {"value", "unit"}
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], (int, float))


def test_manifest_matches_the_metric_tables():
    assert MANIFEST == M.manifest(MANIFEST["command"], "benchmarks/e2e",
                                  MANIFEST["run_seconds"])
    names = [m["name"] for m in MANIFEST["end_to_end"]
             + MANIFEST["per_layer"] + MANIFEST["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    line, report = run_benchmark(tmp_path / "result.json",
                                 "--passes", "2", "--trace", "0")
    check_line(line, MANIFEST["end_to_end"])
    assert all(reading["value"] > 0 for reading in line["metrics"].values())
    assert line["attempted"] == 2
    for stamp in ("seed", "commit", "nproc", "python"):
        assert report[stamp] is not None
    run, = report["workloads"]["campaign_warm"]["runs"]
    assert run["passes"] == 2 and run["samples"] == 2
    assert run["end_to_end"]["failed_share"] == 0.0
    assert "op_p90_s" not in run["end_to_end"]      # n < 100: not faked
    assert len(run["setup_samples"]) >= 3


def test_traced_run_reports_every_layer_and_consistent_spans(tmp_path):
    line, report = run_benchmark(tmp_path / "trace.json", "--trace", "1")
    check_line(line, MANIFEST["per_layer"])
    layers = {name: r["value"] for name, r in line["metrics"].items()}
    # The warm campaign is answered from the store: no solving, no pool.
    assert layers["mc.cache.hit_ratio"] == 1.0
    assert layers["sat.solve_s"] == 0 and layers["sat.solve_calls"] == 0
    assert layers["mc.portfolio.stream_s"] == 0
    assert layers["dist.queue.ops"] == 0
    assert layers["campaign.store.reads"] > 0

    run, = report["workloads"]["campaign_warm"]["runs"]
    assert run["self_exceeds_parent"] == 0
    spans = [json.loads(text) for text in
             (ROOT / run["spans_file"]).read_text().splitlines()]
    assert len(spans) == run["spans"] > 0
    for span in spans:
        assert set(span) == {"id", "name", "layer", "start", "end",
                             "parent", "op", "self_s"}
        assert NAME.fullmatch(span["name"])
        assert -1e-9 <= span["self_s"] <= span["end"] - span["start"] + 1e-9
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert span["self_s"] <= parent["end"] - parent["start"] + 1e-9
            assert span["op"] == parent["op"]
