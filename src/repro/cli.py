"""Command-line interface.

Subcommands::

    repro-verify list                         # designs and properties
    repro-verify verify DESIGN [PROP ...]     # batch portfolio verification
                        [--jobs N] [--strategy SPEC[+SPEC...]]
                        [--backend SPEC]
    repro-verify campaign [DESIGN ...]        # cross-design campaign over
                        [--jobs N]            # the persistent proof store
                        [--workers N]         # ... across N worker processes
                        [--backend SPEC] [--json PATH]
                        [--events DIR]        # the run's record stream
                        [--corpus DIR]        # + every AIGER/BTOR2 file
                                              #   under DIR as a design
    repro-verify fuzz   [--seed N] [--count N]  # differential fuzzing:
                        [--budget SECONDS]    # race every engine on random
                        [--out DIR]           # designs, shrink + bundle any
                        [--replay DIR]        # disagreement; replay a bundle
    repro-verify export DESIGN                # serialize a design (with
                        [--format aiger|btor2]  # compiled monitors)
                        [--binary] [-o FILE]  # as an interchange file
    repro-verify status --backend SPEC        # fleet view: queue depth,
                        [--watch SECONDS]     # per-worker stats, wedged-
                        [--events DIR]        # worker alarm
    repro-verify explain DESIGN PROP          # reconstruct a verdict's
                        --backend SPEC        # story from the effort
                        [--events DIR]        # ledger + record stream
    repro-verify serve  [--cache-dir DIR]     # host the queue + proof store
                        [--host H] [--port P] # over HTTP for other machines
                        [--events DIR]        # journal queue forensics
    repro-verify worker --backend SPEC        # standalone campaign worker
                        [--id ID] [--lease S]
    repro-verify prove  DESIGN PROP [--max-k] # plain k-induction
    repro-verify bmc    DESIGN PROP [--bound]
    repro-verify repair DESIGN PROP [--model] # Fig. 2 flow
                        [--backend SPEC]
    repro-verify lemma  DESIGN [--model]      # Fig. 1 flow
                        [--backend SPEC]
    repro-verify wave   DESIGN PROP           # show the step CEX waveform
    repro-verify models                       # available personas
    repro-verify strategies                   # registered check strategies

A backend ``SPEC`` is a directory (or ``sqlite:DIR``) holding the
proof store and work queue, or the ``http://HOST:PORT`` of a
``repro-verify serve`` instance.  (Also available as
``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.designs import all_designs, get_design
from repro.errors import ReproError
from repro.flow.session import VerificationSession, run_campaign
from repro.genai import get_persona, list_personas
from repro.mc.result import Status
from repro.mc.strategy import get_strategy, resolve_strategy, strategy_names
from repro.obs import journal as _journal
from repro.report import Table
from repro.trace.wave import render_for_prompt


def _split_strategies(arg: str) -> list[str] | None:
    """Parse a ``--strategy`` value ('portfolio' means the default race)."""
    if arg == "portfolio":
        return None
    strategies = [s.strip() for s in arg.split("+")]
    for spec in strategies:
        resolve_strategy(spec)  # report bad specs before running
    return strategies


def _cmd_list(args: argparse.Namespace) -> int:
    table = Table(["design", "family", "property", "expected",
                   "needs helper"], title="built-in design suite")
    for design in all_designs():
        for prop in design.properties:
            table.add_row(design.name, design.family, prop.name,
                          prop.expect, "yes" if prop.needs_helper else "")
    print(table.to_text())
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    table = Table(["model", "vendor", "recall", "hallucination", "junk"],
                  title="simulated LLM personas")
    for name in list_personas():
        persona = get_persona(name)
        table.add_row(persona.name, persona.vendor,
                      f"{persona.recall:.2f}",
                      f"{persona.hallucination_rate:.2f}",
                      f"{persona.extra_junk:.1f}")
    print(table.to_text())
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    table = Table(["strategy", "proves", "refutes"],
                  title="registered check strategies")
    for name in strategy_names():
        strategy = get_strategy(name)
        table.add_row(name, "yes" if strategy.can_prove else "",
                      "yes" if strategy.can_refute else "")
    print(table.to_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    design = get_design(args.design)
    session = VerificationSession(design, backend=args.backend)
    strategies = _split_strategies(args.strategy)
    result = session.verify_all(
        properties=args.properties or None, jobs=args.jobs,
        strategies=strategies, max_k=args.max_k, bmc_bound=args.bound)
    print("\n".join(result.summary_lines()))
    # Exit status reflects verdict vs expectation: a VIOLATED verdict on
    # an expect=proven property (or a missed expect=violated one) fails.
    failures = 0
    for outcome in result.outcomes:
        expect = design.property_spec(outcome.property_name).expect
        if expect == "unknown":      # corpus file without ground truth
            continue
        violated = outcome.status is Status.VIOLATED
        if violated != (expect == "violated"):
            failures += 1
            print(f"  MISMATCH: {outcome.property_name} expected "
                  f"{expect}, got {outcome.status.value}")
    return 0 if failures == 0 else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    session = VerificationSession(get_design(args.design))
    result = session.prove_direct(args.property, max_k=args.max_k)
    print(result.one_line())
    return 0 if result.status is Status.PROVEN else 1


def _cmd_bmc(args: argparse.Namespace) -> int:
    session = VerificationSession(get_design(args.design))
    result = session.bmc(args.property, bound=args.bound)
    print(result.one_line())
    if result.cex is not None:
        from repro.trace.wave import render_wave
        print(render_wave(result.cex))
    return 0 if result.status is not Status.VIOLATED else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.formats.designio import export_design

    design = get_design(args.design)
    payload = export_design(design, args.format, binary=args.binary)
    data = payload if isinstance(payload, bytes) else payload.encode()
    if args.output and args.output != "-":
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {len(data)} bytes of {args.format} "
              f"({len(design.properties)} properties) to {args.output}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import DifferentialOracle, replay_bundle, run_fuzz

    strategies = None
    if args.strategy != "oracle":
        strategies = _split_strategies(args.strategy)
    oracle = DifferentialOracle(strategies)

    if args.replay:
        try:
            report = replay_bundle(args.replay, oracle)
        except FileNotFoundError as exc:
            raise ReproError(str(exc)) from exc
        for verdict in report.verdicts:
            print(f"  {verdict.strategy}: {verdict.status}")
        if report.ok:
            print("bundle replay: no disagreement reproduced")
            return 1
        for d in report.disagreements:
            print("  " + d.one_line())
        print(f"bundle replay: {len(report.disagreements)} "
              "disagreement(s) reproduced")
        return 0

    report = run_fuzz(seed=args.seed, count=args.count,
                      budget=args.budget, out_dir=args.out,
                      oracle=oracle, shrink=not args.no_shrink)
    print(f"fuzzed {report.designs_checked} designs from seed "
          f"{args.seed} in {report.elapsed_seconds:.1f}s "
          f"({report.designs_per_second:.1f} designs/sec)")
    print(f"  disagreements: {report.disagreements}  "
          f"shrink steps: {report.shrink_steps}")
    if report.budget_exhausted:
        print(f"  budget of {args.budget:g}s exhausted early")
    for record in report.records:
        print(f"  {record.design_name} (seed {record.seed}):")
        for d in record.disagreements:
            print("    " + d.one_line())
        if record.bundle_dir:
            print(f"    repro bundle: {record.bundle_dir}")
    if args.verbose:
        for note in report.notes:
            print("  note: " + note)
    return 0 if report.disagreements == 0 else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    designs = list(args.designs)
    if args.corpus:
        from repro.designs import load_corpus
        from repro.designs.registry import CORPUS_ENV

        designs += [d.name for d in load_corpus(args.corpus)]
        # Publish the corpus root so spawned workers (which resolve
        # designs by name in their own process) find the files too.
        roots = [args.corpus] + [
            r for r in os.environ.get(CORPUS_ENV, "").split(os.pathsep)
            if r]
        os.environ[CORPUS_ENV] = os.pathsep.join(dict.fromkeys(roots))
    report = run_campaign(
        designs=designs or None, backend=args.backend,
        jobs=args.jobs, strategies=_split_strategies(args.strategy),
        max_k=args.max_k, bmc_bound=args.bound, workers=args.workers,
        lease_seconds=args.lease, wall_timeout=args.wall_timeout,
        events_dir=args.events)
    print(report.to_text())
    if args.events:
        print(f"  trace {report.trace_id} journaled to {args.events} "
              f"(render with scripts/trace_report.py, dig with "
              f"`repro-verify explain DESIGN PROP`)")
    if args.json_path:
        rendered = report.to_json()
        if args.json_path == "-":
            print(rendered)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(rendered + "\n")
    for row in report.rows:
        if row.mismatch:
            print(f"  MISMATCH: {row.design}.{row.property_name} "
                  f"expected {row.expect}, got {row.status}")
    return 0 if report.mismatches == 0 else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import Worker
    worker = Worker(args.backend, worker_id=args.id,
                    lease_seconds=args.lease)
    done = worker.run()
    print(f"worker {worker.worker_id}: completed {done} jobs")
    return 0


def _resolve_backend_arg(args: argparse.Namespace, what: str):
    if args.backend is None:
        raise ValueError(
            f"{what} needs a target: pass --backend DIR, "
            "--backend sqlite:DIR or --backend http://HOST:PORT")
    from repro.dist.backend import parse_backend
    resolved = parse_backend(args.backend)
    # Opening a store or queue creates its files: a read-only command
    # pointed at a mistyped directory must not leave an empty one behind.
    if not resolved.is_remote and not os.path.isdir(resolved.location):
        raise ValueError(
            f"{what}: no such backend directory {resolved.location!r}")
    return resolved


def _worker_table(snapshot: list[dict]) -> Table:
    """Per-worker throughput table from a queue worker snapshot."""
    table = Table(["worker", "jobs", "busy (s)", "jobs/s", "beat age",
                   "current job", "job age"], title="workers")
    for w in snapshot:
        busy = w.get("busy_seconds") or 0.0
        jobs = w.get("jobs_done") or 0
        rate = f"{jobs / busy:.2f}" if busy > 0 else "-"
        job_age = w.get("job_age_seconds")
        table.add_row(
            w.get("worker_id", "?"), jobs, f"{busy:.3f}", rate,
            f"{w.get('heartbeat_age_seconds', 0.0):.1f}s",
            w.get("current_job") or "-",
            f"{job_age:.1f}s" if job_age is not None else "-")
    return table


#: A worker holding one job this many times longer than the fleet's
#: median per-job solve time is flagged ``WEDGED?``.
WEDGED_FACTOR = 10


def _wedged_workers(snapshot: list[dict]) -> list[tuple[dict, float]]:
    """The wedged-worker heuristic over a queue worker snapshot.

    A worker is flagged when its lease is alive (the queue has not
    written it off) yet it has held one job for more than
    :data:`WEDGED_FACTOR` times the fleet's median per-job solve time:
    the classic signature of a solver stuck inside one SAT call, which
    heartbeats alone can never detect.  Returns ``(worker, threshold)``
    pairs.
    """
    per_job = sorted(
        w["busy_seconds"] / w["jobs_done"]
        for w in snapshot if w.get("jobs_done"))
    if not per_job:
        return []
    median = per_job[len(per_job) // 2]
    flagged = []
    for w in snapshot:
        age = w.get("job_age_seconds")
        remaining = w.get("lease_remaining_seconds")
        if age is None or remaining <= 0:
            continue
        # Floor at the worker's lease horizon (a heartbeat stamps its
        # time and the new expiry together): with a handful of
        # sub-second warmup jobs the median alone would flag every
        # normal solve.
        threshold = max(WEDGED_FACTOR * median,
                        w["heartbeat_age_seconds"] + remaining)
        if age > threshold:
            flagged.append((w, threshold))
    return flagged


def _fleet_view(queue, store) -> list[str]:
    """The ``status`` view of one backend, read through its protocol
    (``queue`` is None where no queue exists yet)."""
    if queue is None:
        snapshot = []
        lines = ["  queue: none"]
    else:
        counts = queue.counts()
        snapshot = queue.worker_snapshot()
        lines = [f"  queue: state={queue.state()}, "
                 f"pending={counts.get('pending', 0)}, "
                 f"leased={counts.get('leased', 0)}, "
                 f"done={counts.get('done', 0)}"]
    lines.append(f"  store: {len(store)} results")
    if snapshot:
        lines.append(_worker_table(snapshot).to_text())
    for worker, threshold in _wedged_workers(snapshot):
        lines.append(
            f"  WEDGED? {worker['worker_id']} has held "
            f"{worker['current_job']} for "
            f"{worker['job_age_seconds']:.1f}s (> {threshold:.1f}s) "
            f"while its lease is alive")
        _journal.emit("worker_wedged", worker=worker["worker_id"],
                      job_id=worker["current_job"],
                      job_age_seconds=round(
                          worker["job_age_seconds"], 3),
                      threshold_seconds=round(threshold, 3))
    return lines


def _cmd_status(args: argparse.Namespace) -> int:
    import time

    from repro.dist.backend import open_queue, open_store
    from repro.dist.queue import WorkQueue

    resolved = _resolve_backend_arg(args, "status")
    if args.events and _journal.active() is None:
        _journal.configure(args.events)
    queue_file = os.path.join(resolved.location, WorkQueue.FILENAME)
    queue = None
    store = open_store(resolved)
    try:
        while True:
            # Opening a sqlite queue creates it: only look at one that a
            # distributed campaign has made (rechecked on every redraw).
            if queue is None and (resolved.is_remote
                                  or os.path.exists(queue_file)):
                queue = open_queue(resolved)
            try:
                lines = _fleet_view(queue, store)
            except (OSError, ReproError) as exc:
                message = (f"error: backend {resolved.spec()} "
                           f"unreachable: {type(exc).__name__}: {exc}")
                if not args.watch:
                    print(message, file=sys.stderr)
                    return 1
                lines = [message]
            if args.watch:
                print("\x1b[2J\x1b[H", end="")   # clear + home
            print(f"backend {resolved.spec()} — "
                  f"{time.strftime('%H:%M:%S')}")
            print("\n".join(lines))
            if not args.watch:
                return 0
            try:
                time.sleep(args.watch)
            except KeyboardInterrupt:
                return 0
    finally:
        if queue is not None:
            queue.close()
        store.close()


def _format_effort(effort: dict) -> str:
    parts = []
    for key in ("conflicts", "propagations", "sat_queries"):
        value = effort.get(key)
        if value:
            parts.append(f"{value} {key}")
    return ", ".join(parts) if parts else "no solver effort"


def _cmd_explain(args: argparse.Namespace) -> int:
    import time

    resolved = _resolve_backend_arg(args, "explain")
    from repro.dist.backend import open_store
    store = open_store(resolved)
    try:
        entry = store.ledger_entry(args.design, args.property)
    finally:
        store.close()
    if entry is None:
        print(f"no ledger entry for {args.design}.{args.property} on "
              f"{resolved.spec()} — run a campaign or verify against "
              f"this backend first (each verdict they reach is "
              f"recorded)", file=sys.stderr)
        return 1
    provenance_story = {
        "engine": "solved fresh by the engine",
        "store": "answered from the proof store (no solver ran)",
        "seeded": "a strategy seeded with lemmas mined from the "
                  "design (or given as seeds) won the race, with no "
                  "LLM in the loop",
    }.get(entry["provenance"], entry["provenance"] or "unknown")
    print(f"{args.design}.{args.property}: {entry['status']}")
    print(f"  provenance: {entry['provenance']} — {provenance_story}")
    print(f"  winner: {entry['strategy']} (k={entry['k']}) in "
          f"{entry['wall_seconds']:.3f}s")
    origin = "proof store / cache" if entry["from_cache"] else "solver"
    print(f"  origin: {origin}")
    if entry["worker"]:
        print(f"  worker: {entry['worker']}")
    if entry.get("recorded"):
        print(f"  recorded: "
              f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(entry['recorded']))}")
    attempts = entry.get("attempts") or []
    if attempts:
        table = Table(["strategy", "origin", "status", "winner",
                       "solve (s)", "effort"],
                      title=f"effort ledger ({len(attempts)} strategy "
                            f"slots raced)")
        for a in attempts:
            effort = a.get("effort") or {}
            solve = effort.get("solve_seconds")
            table.add_row(
                a.get("strategy", "?"), a.get("origin", "?"),
                a.get("status") or "-",
                "<- winner" if a.get("winner") else "",
                f"{solve:.3f}" if solve is not None else "-",
                _format_effort(effort))
        print(table.to_text())
    else:
        print("  (no per-strategy attempt rows recorded)")
    if args.events:
        def _matches(record: dict) -> bool:
            # Check-level records name the *compiled scoped system*
            # ("design+monitors#coi"), job records the registry
            # design — accept both spellings of the same design.
            named = record.get("design", "")
            if named != args.design and \
                    not named.startswith(args.design + "+"):
                return False
            return record.get("property") == args.property

        relevant = [r for r in _journal.load(args.events) if _matches(r)]
        if relevant:
            print(f"journal ({len(relevant)} records in {args.events}):")
            for r in relevant:
                stamp = time.strftime("%H:%M:%S",
                                      time.localtime(r.get("ts", 0)))
                took = f" ({r['dur']:.3f}s)" if "dur" in r else ""
                detail = ", ".join(
                    f"{k}={v}" for k, v in sorted(r.items())
                    if k not in ("ts", "kind", "host", "pid", "design",
                                 "property", "trace_id", "span_id",
                                 "parent_id", "dur"))
                print(f"  {stamp} {r['kind']}{took}: {detail}")
        else:
            print(f"journal: no records for {args.design}."
                  f"{args.property} under {args.events}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.dist import ProofService
    if args.events:
        # The queue runs in THIS process under the HTTP backend, so
        # queue_claim/queue_requeue forensics land here, not in the
        # campaign coordinator's journal.  Point both at one shared
        # directory to get a single merged timeline.
        _journal.configure(args.events)
    service = ProofService(cache_dir=args.cache_dir, host=args.host,
                           port=args.port)
    if args.cache_dir is None:
        print("serving from a scratch directory: queue and proof store "
              "are lost when this process exits (pass --cache-dir to "
              "survive restarts)")
    print(f"serving work queue + proof store at {service.address}")
    print(f"  campaign: repro-verify campaign --backend "
          f"{service.address} --workers N")
    print(f"  workers:  repro-verify worker --backend {service.address}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close()
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    session = VerificationSession(get_design(args.design),
                                  model=args.model, seed=args.seed,
                                  backend=args.backend)
    result = session.repair(args.property)
    print("\n".join(result.summary_lines()))
    for outcome in result.outcomes:
        print("  " + outcome.one_line())
    return 0 if result.converged else 1


def _cmd_lemma(args: argparse.Namespace) -> int:
    session = VerificationSession(get_design(args.design),
                                  model=args.model, seed=args.seed,
                                  backend=args.backend)
    result = session.lemma_flow()
    print("\n".join(result.summary_lines()))
    for outcome in result.outcomes:
        print("  " + outcome.one_line())
    return 0


def _cmd_wave(args: argparse.Namespace) -> int:
    session = VerificationSession(get_design(args.design))
    result = session.prove_direct(args.property)
    print(result.one_line())
    if result.step_cex is not None:
        print()
        print(render_for_prompt(result.step_cex))
        return 0
    print("no induction-step counterexample to show")
    return 1


def _add_backend(p: argparse.ArgumentParser, required: bool = False
                 ) -> None:
    p.add_argument("--backend", default=None, required=required,
                   metavar="SPEC",
                   help="where the proof store (and work queue) lives: "
                        "a directory (or 'sqlite:DIR') for an on-disk "
                        "store, or 'http://HOST:PORT' for a "
                        "repro-verify serve instance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="GenAI-augmented induction-based formal verification "
                    "(SOCC 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list designs and properties") \
        .set_defaults(func=_cmd_list)
    sub.add_parser("models", help="list simulated LLM personas") \
        .set_defaults(func=_cmd_models)
    sub.add_parser("strategies", help="list registered check strategies") \
        .set_defaults(func=_cmd_strategies)

    p = sub.add_parser(
        "verify",
        help="batch-verify properties via the portfolio scheduler")
    p.add_argument("design")
    p.add_argument("properties", nargs="*",
                   help="property names (default: all of the design)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the parallel scheduler")
    p.add_argument("--strategy", default="portfolio",
                   help="'portfolio' (default: race k_induction + bmc) or "
                        "'+'-joined strategy specs, e.g. "
                        "'k_induction(max_k=3)+bmc(bound=12)' or "
                        "'pdr+bmc' (see `repro-verify strategies`)")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--bound", type=int, default=None,
                   help="BMC bound for the default portfolio refuter")
    _add_backend(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "campaign",
        help="cross-design campaign over a persistent proof store")
    p.add_argument("designs", nargs="*",
                   help="design names (default: every built-in design)")
    p.add_argument("--jobs", type=int, default=1,
                   help="global worker-process limit across all designs")
    p.add_argument("--workers", type=int, default=0,
                   help="dispatch the job pool across N worker "
                        "processes through the shared work queue "
                        "(0 = run in-process)")
    p.add_argument("--lease", type=float, default=15.0,
                   help="distributed lease/heartbeat horizon in "
                        "seconds: a worker silent this long forfeits "
                        "its job")
    p.add_argument("--wall-timeout", type=float, default=None,
                   help="abort a distributed campaign after this many "
                        "seconds (guards against a worker wedged "
                        "inside a single solve, which heartbeats "
                        "cannot detect)")
    p.add_argument("--strategy", default="portfolio",
                   help="'portfolio' (default) or '+'-joined specs")
    p.add_argument("--max-k", type=int, default=None,
                   help="induction depth override (default: per "
                        "property)")
    p.add_argument("--bound", type=int, default=None,
                   help="BMC bound for portfolio refuters")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the JSON report here ('-' for stdout)")
    p.add_argument("--events", default=None, metavar="DIR",
                   help="capture the run's record stream into DIR "
                        "(JSONL per process: check/job/queue/campaign "
                        "records, spans carrying a duration; render "
                        "with scripts/trace_report.py, dig with "
                        "`repro-verify explain`)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="also campaign over every AIGER/BTOR2 file "
                        "under DIR (loaded via the corpus importer; "
                        "designs are named by relative path)")
    _add_backend(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generate random designs, race every "
             "registered engine, cross-check traces and certificates, "
             "shrink any disagreement to a replayable repro bundle")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; the whole campaign is deterministic "
                        "in it (default: 0)")
    p.add_argument("--count", type=int, default=100,
                   help="designs to generate and oracle (default: 100)")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock cap in seconds; stops early once "
                        "exceeded")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write shrunk repro bundles (design.aag + "
                        "repro.json per disagreement) under DIR")
    p.add_argument("--replay", default=None, metavar="DIR",
                   help="instead of fuzzing, replay the repro bundle in "
                        "DIR; exit 0 iff the disagreement reproduces")
    p.add_argument("--strategy", default="oracle",
                   help="'oracle' (default: bmc, k_induction, pdr, "
                        "pdr_seeded, external) or '+'-joined specs")
    p.add_argument("--no-shrink", action="store_true",
                   help="report disagreements without delta-debugging "
                        "them")
    p.add_argument("--verbose", action="store_true",
                   help="also print per-design oracle notes")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "export",
        help="serialize a design plus its compiled property monitors "
             "as AIGER (.aag/.aig) or BTOR2")
    p.add_argument("design")
    p.add_argument("--format", default="aiger",
                   choices=["aiger", "btor2"],
                   help="interchange format (default: aiger)")
    p.add_argument("--binary", action="store_true",
                   help="binary AIGER (.aig) instead of ascii (.aag); "
                        "aiger format only")
    p.add_argument("-o", "--output", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "status",
        help="fleet view of a backend: queue depth, store size, "
             "per-worker throughput and lease ages, wedged-worker "
             "detection (lease alive but one job held far past the "
             "fleet's median solve time)")
    _add_backend(p)
    p.add_argument("--watch", type=float, default=None,
                   metavar="SECONDS",
                   help="redraw the view every SECONDS until "
                        "interrupted (Ctrl-C)")
    p.add_argument("--events", default=None, metavar="DIR",
                   help="journal worker_wedged warning records into "
                        "DIR when the heuristic fires")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "explain",
        help="reconstruct the story of one verdict from the effort "
             "ledger: which strategies raced, what each cost, which "
             "won, and whether the answer came from the engine, the "
             "proof store, or lemmas mined from the design")
    p.add_argument("design")
    p.add_argument("property")
    _add_backend(p)
    p.add_argument("--events", default=None, metavar="DIR",
                   help="also print this (design, property)'s records "
                        "(spans with their duration) from the journal "
                        "in DIR")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "worker",
        help="run one standalone campaign worker against a shared "
             "backend (see `campaign --workers` and `serve`); it "
             "races one claimed job at a time, so run one worker per "
             "core, and leaves once a closed queue has nothing to "
             "claim or after 60 idle seconds")
    _add_backend(p, required=True)
    p.add_argument("--id", default=None,
                   help="worker id (default: derived from hostname "
                        "and pid; must be unique across all joined "
                        "machines)")
    p.add_argument("--lease", type=float, default=15.0,
                   help="lease/heartbeat horizon in seconds")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="host the work queue + proof store over HTTP so "
             "campaigns and workers on other machines can join "
             "(--backend http://HOST:PORT)")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the backing SQLite files; reuse "
                        "it across restarts to resume in-flight "
                        "campaigns (default: a scratch directory)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (use 0.0.0.0 to accept other "
                        "machines — trusted networks only: the wire "
                        "protocol is pickle and unauthenticated)")
    p.add_argument("--port", type=int, default=7333,
                   help="bind port (0 picks an ephemeral port)")
    p.add_argument("--events", default=None, metavar="DIR",
                   help="journal this service's records "
                        "(queue claims/requeues, failed requests) "
                        "into DIR; share the campaign's --events DIR "
                        "for one merged timeline")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("prove", help="k-induction without GenAI")
    p.add_argument("design")
    p.add_argument("property")
    p.add_argument("--max-k", type=int, default=None)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("bmc", help="bounded model checking")
    p.add_argument("design")
    p.add_argument("property")
    p.add_argument("--bound", type=int, default=20)
    p.set_defaults(func=_cmd_bmc)

    p = sub.add_parser("repair", help="Fig. 2 induction-repair flow")
    p.add_argument("design")
    p.add_argument("property")
    p.add_argument("--model", default="gpt-4o")
    p.add_argument("--seed", type=int, default=0)
    _add_backend(p)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("lemma", help="Fig. 1 lemma-generation flow")
    p.add_argument("design")
    p.add_argument("--model", default="gpt-4o")
    p.add_argument("--seed", type=int, default=0)
    _add_backend(p)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("wave", help="show an induction-step CEX waveform")
    p.add_argument("design")
    p.add_argument("property")
    p.set_defaults(func=_cmd_wave)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return code
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left early (`... | head`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
