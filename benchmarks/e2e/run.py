#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --seed 0            # all six workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace    # per-layer table
    python3 benchmarks/e2e/run.py --workload campaign_warm --seed 3 \
        --seconds 12 --trace 0                        # what the driver runs
    python3 benchmarks/e2e/run.py --check-counts A.json B.json

Every workload runs in a fresh interpreter (this file again, with
``--child-result``), so set-up time, CPU time and peak memory are the
workload's own.  The parent never imports the program; it spawns the
children one at a time, gathers their results, prints every metric by
name with its unit, writes one result JSON, and - when a single
workload was asked for - prints the driver's result object as the last
line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"              # results, span files, scratch: disposable

#: ``--seconds`` when not given: the ``run_seconds`` the driver uses.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The driver allows a run 180 s; children are killed before that.
RUN_DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# The child: one workload, in this process
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def run_ops(ops, label: str, tracer=None) -> tuple[list, float]:
    """Run ``ops`` once, in order.  Returns one (op, result, error,
    latency) per op and the CPU seconds the pass cost.  Only ``op.run``
    is timed; an op that raises is recorded, not propagated."""
    gc.collect()
    cpu_before = cpu_seconds()
    done = []
    for op in ops:
        ctx = op.prepare()
        result = error = None
        traced = tracer.operation(f"{label}:{op.name}") \
            if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with traced:
                result = op.run(ctx)
        except Exception:
            error = traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        op.finish(ctx, result)
        done.append((op, result, error, latency))
    return done, cpu_seconds() - cpu_before


def judge_ops(done, cpu: float) -> dict:
    """The oracle, run on a finished pass: outside every timed region
    and with no tracer installed."""
    record = {"wall_s": sum(latency for *_rest, latency in done),
              "cpu_s": cpu, "latencies": [], "verdicts": 0, "decided": 0,
              "attempted": len(done), "failed": 0, "problems": []}
    for op, result, error, latency in done:
        record["latencies"].append(latency)
        problems = [f"{op.name} raised:\n{error}"] if error else []
        if not error:
            try:
                judgement = op.judge(result)
            except Exception:
                problems.append(f"oracle raised on {op.name}:\n"
                                + traceback.format_exc(limit=4))
            else:
                record["verdicts"] += judgement.verdicts
                record["decided"] += judgement.decided
                problems += judgement.problems
        if problems:
            record["failed"] += 1
            record["problems"] += problems
    return record


def summarize(passes: list[dict]) -> dict:
    """One run's end-to-end metrics (all but ``setup_s``) and counts."""
    latencies = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    verdicts = sum(p["verdicts"] for p in passes)
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verdicts_per_s": statistics.median(
            p["verdicts"] / p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "decided_share": sum(p["decided"] for p in passes) / verdicts
        if verdicts else 0.0,
        "failed_share": failed / attempted,
    }
    if len(latencies) >= M.P90_MIN_SAMPLES:
        end_to_end["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return {
        "passes": len(passes), "samples": len(latencies),
        "attempted": attempted, "failed": failed,
        "verdicts": verdicts,
        "problems": [x for p in passes for x in p["problems"]][:20],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "end_to_end": end_to_end,
    }


def run_child(args) -> dict:
    """Set-up, warm-up, then the timed (or the traced) passes."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    name = args.workload[0]
    scratch = Path(os.environ["TMPDIR"])
    env = workloads.Env(root=ROOT, scratch=scratch, seed=args.seed,
                        traced=bool(args.trace))
    rng = random.Random(f"{args.seed}:{name}:order")

    def next_order(ops):
        order = list(ops)
        rng.shuffle(order)
        return order

    workload = workloads.WORKLOADS[name](env)
    warmup = judge_ops(*run_ops(next_order(workload.warmup), "warmup"))
    if warmup["failed"]:
        raise RuntimeError("warm-up failed the oracle:\n"
                           + "\n".join(warmup["problems"]))
    setup_s = time.time() - args.started
    if args.setup_only:
        return {"setup_s": setup_s}

    if not args.trace:
        passes: list[dict] = []
        timed_from = time.perf_counter()
        while (len(passes) < args.passes if args.passes else
               time.perf_counter() - timed_from < args.seconds):
            passes.append(judge_ops(*run_ops(
                next_order(workload.ops), f"pass{len(passes)}")))
        result = summarize(passes)
        result["end_to_end"]["setup_s"] = setup_s
        return result

    # Traced: one untraced pass for the overhead ratio, then the same
    # op order again under the wrappers.
    order = next_order(workload.ops)
    untraced = judge_ops(*run_ops(order, "untraced"))
    tracer = tracing.Tracer()
    tracing.install(tracer, also=[workloads])
    try:
        done, cpu = run_ops(order, "traced", tracer)
    finally:
        tracer.uninstall()
    traced = judge_ops(done, cpu)
    result = summarize([untraced, traced])
    del result["end_to_end"]
    result["per_layer"] = tracing.layer_metrics(
        tracer, traced["wall_s"], untraced["wall_s"], cpu,
        getattr(workload, "extra", {}))
    result["traced_wall_s"] = traced["wall_s"]
    result["untraced_wall_s"] = untraced["wall_s"]
    result["spans"] = len(tracer.spans)
    result["self_exceeds_parent"] = tracer.self_exceeds_parent()
    if args.spans:
        tracer.write_spans(args.spans)
        result["spans_file"] = os.path.relpath(args.spans, ROOT)
    return result


def child_main(args) -> int:
    try:
        result = run_child(args)
    except Exception:
        result = {"error": traceback.format_exc()}
    result["workload"] = args.workload[0]
    result["seed"] = args.seed
    Path(args.child_result).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The parent: spawn, gather, print
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, args, deadline: float,
          extra: list[str]) -> dict:
    """One child interpreter for one workload; its result, or an
    ``error`` entry when it died, hung or wrote nothing."""
    scratch = OUT / "scratch" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    result_path = scratch / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["REPRO_CORPUS"] = str(ROOT / "corpus")
    env["TMPDIR"] = str(scratch)    # nothing is written outside ROOT
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child-result", str(result_path),
               "--started", repr(time.time()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace), *extra]
    if args.passes:
        command += ["--passes", str(args.passes)]
    # Own session, so that stray grandchildren (pool processes, spawned
    # workers) can be swept with the group whatever happened.
    proc = subprocess.Popen(command, env=env, cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"{workload}: no result within the deadline"}
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if not result_path.exists():
            return {"error": f"{workload}: child exited "
                             f"{proc.returncode} without a result"}
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(workload: str, seed: int, args) -> dict:
    """One run of one workload: ``SETUPS`` set-ups (median reported),
    the last of which goes on to measure."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    extra = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        extra = ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
        return spawn(workload, seed, args, deadline, extra)
    setups = []
    for _ in range(SETUPS - 1):
        only = spawn(workload, seed, args, deadline, ["--setup-only"])
        if "error" in only:
            return only
        setups.append(only["setup_s"])
    result = spawn(workload, seed, args, deadline, extra)
    if "error" not in result:
        setups.append(result["end_to_end"]["setup_s"])
        result["setup_samples"] = setups
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_end_to_end(name: str, runs: list[dict]) -> None:
    good = [r for r in runs if "error" not in r]
    print(f"\n{name}: {len(good)} run(s), "
          f"{sum(r['passes'] for r in good)} timed passes, "
          f"{sum(r['samples'] for r in good)} timed ops, "
          f"{sum(r['failed'] for r in good)} failed")
    for metric in M.END_TO_END:
        values = [r["end_to_end"][metric.name] for r in good
                  if metric.name in r["end_to_end"]]
        if not values:
            print(f"  {metric.name:<16} {'-':>12} {metric.unit:<6}"
                  f"(fewer than {M.P90_MIN_SAMPLES} ops)")
            continue
        spread = M.quartile_spread(values)
        note = f"n={len(values)} runs" + \
            (f", quartile spread {spread:.1%}" if spread is not None else "")
        print(f"  {metric.name:<16} {statistics.median(values):>12.4f} "
              f"{metric.unit:<6}({note})")


def print_per_layer(results: dict[str, list[dict]]) -> None:
    names = list(results)
    print("\nper-layer metrics, one traced pass "
          "(self seconds, counts, ratios)")
    print(f"{'metric':<30}{'unit':<7}"
          + "".join(f"{n:>15}" for n in names))
    for metric in M.PER_LAYER:
        cells = []
        for name in names:
            run = results[name][0]
            value = run.get("per_layer", {}).get(metric.name)
            cells.append(f"{'-':>15}" if value is None else
                         f"{value:>15.4f}" if isinstance(value, float)
                         else f"{value:>15}")
        print(f"{metric.name:<30}{metric.unit:<7}" + "".join(cells))


def driver_line(run: dict, traced: bool) -> str:
    """The result object of the driver's contract (always the last line)."""
    if traced:
        units = {m.name: m.unit for m in M.PER_LAYER}
        values = run["per_layer"]
    else:
        units = {m.name: m.unit for m in M.END_TO_END
                 if m.name not in M.NOT_IN_MANIFEST}
        values = run["end_to_end"]
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}})


def check_counts(path_a: str, path_b: str) -> int:
    """Diff the counts that must repeat exactly between two traced
    result files of the same seed."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): counts are "
              "only expected to repeat for a fixed seed")
        return 2
    differing = compared = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        layer_a, layer_b = (side["workloads"][name]["runs"][0]["per_layer"]
                            for side in (a, b))
        for count in M.EXACT_COUNTS:
            if count in M.RACY_COUNTS.get(name, ()):
                verdict = "timing-dependent, not compared"
            else:
                compared += 1
                same = layer_a[count] == layer_b[count]
                differing += not same
                verdict = "same" if same else "DIFFERS"
            print(f"{name:<15}{count:<20}{layer_a[count]:>14} "
                  f"{layer_b[count]:>14}  {verdict}")
    print(f"{compared} counts compared, {differing} differ")
    return 1 if differing or not compared else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(M.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the ops of each pass and the "
                             "campaign's design list")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--passes", type=int, default=0,
                        help="measure exactly this many passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="one traced pass per workload: per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds SEED, SEED+1, ...")
    parser.add_argument("--out", type=Path,
                        help="result JSON (default: under out/)")
    parser.add_argument("--check-counts", nargs=2,
                        metavar=("A.json", "B.json"))
    for hidden in ("--child-result", "--spans"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.check_counts:
        return check_counts(*args.check_counts)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no src/repro and corpus/ to benchmark",
              file=sys.stderr)
        return 2
    if args.child_result:
        return child_main(args)

    names = args.workload or list(M.WORKLOADS)
    results: dict[str, list[dict]] = {name: [] for name in names}
    for run in range(args.runs):
        for name in names:
            print(f"[{name} seed {args.seed + run}] ...", file=sys.stderr)
            results[name].append(run_workload(name, args.seed + run, args))

    errors = [r["error"] for runs in results.values() for r in runs
              if "error" in r]
    report = {
        "schema": "e2e-bench/1",
        "mode": "traced" if args.trace else "untraced",
        "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "passes": args.passes or None,
        "commit": commit_id(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {name: {"runs": runs}
                      for name, runs in results.items()},
    }
    out = args.out or OUT / (
        f"{'trace' if args.trace else 'result'}-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    problems = [x for runs in results.values() for r in runs
                for x in r.get("problems", [])]
    for problem in problems[:20]:
        print(f"oracle: {problem}", file=sys.stderr)
    if not errors:
        if args.trace:
            print_per_layer(results)
        else:
            for name, runs in results.items():
                print_end_to_end(name, runs)
    print(f"\nresult written to {os.path.relpath(out)}")
    if errors:
        return 1
    if len(names) == 1 and args.runs == 1:
        print(driver_line(results[names[0]][0], bool(args.trace)))
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
