#!/usr/bin/env python3
"""Render a campaign journal directory into a time breakdown.

A journaled run (``repro-verify campaign --events DIR`` or
``run_campaign(events_dir=...)``) leaves one
``journal-<host>-<pid>.jsonl`` file per participating process in DIR.
This script reads them through ``repro.obs.journal.load``, stitches
the records that have a ``span_id`` back into one span tree and
reports:

* the tree itself (``--tree``), indented, with durations;
* per-phase totals (the campaign root's direct children: compile,
  dispatch, store);
* per-strategy totals over the "check" spans, and per-worker totals
  over the "job" spans — "which engine/worker did this campaign's time
  go to";
* orphan spans (a parent id that matches no recorded span): a healthy
  trace has exactly one root and zero orphans, which ``--strict``
  turns into the exit status (used by CI's obs-smoke job), naming the
  offending span ids;
* per-span-kind duration percentiles (p50/p95/max) with ``--tree``;
* ``--folded PATH`` exports the tree in folded-stack format — one
  ``root;child;leaf self_ms`` line per span, self time in integer
  milliseconds — ready for any flamegraph renderer
  (``flamegraph.pl``, speedscope, inferno);
* ``--html PATH`` writes a self-contained HTML timeline: one swimlane
  per participating process (annotated with its worker id where jobs
  ran there), spans as positioned bars, no external assets.

Usage::

    python scripts/trace_report.py EVENTS_DIR [--tree] [--strict]
        [--folded stacks.folded] [--html timeline.html]
    python scripts/trace_report.py journal-host-123.jsonl   # single file
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import journal  # noqa: E402


def load_spans(path: Path) -> list[dict]:
    """The span records under ``path`` (a journal dir or one file)."""
    return [r for r in journal.load(path) if "span_id" in r]


def build_tree(spans: list[dict]) -> tuple[list[dict], list[dict],
                                           dict[str, list[dict]]]:
    """(roots, orphans, children-by-parent) over one span list."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[dict]] = defaultdict(list)
    roots, orphans = [], []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None:
            roots.append(span)
        elif parent in by_id:
            children[parent].append(span)
        else:
            orphans.append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("ts", 0.0))
    return roots, orphans, children


def _label(span: dict) -> str:
    for key in ("strategy", "design", "property", "job_id"):
        if key in span:
            detail = span.get("property") or span.get(key)
            strategy = span.get("strategy")
            parts = [p for p in (span.get("design"), detail) if p]
            tail = f" [{strategy}]" if strategy else ""
            return f"{span['kind']} {'.'.join(dict.fromkeys(parts))}" \
                   f"{tail}"
    return span["kind"]


def render_tree(roots: list[dict], children: dict[str, list[dict]],
                max_depth: int) -> list[str]:
    lines = []

    def visit(span: dict, depth: int) -> None:
        if depth > max_depth:
            return
        proc = f"{span.get('host', '?')}:{span.get('pid', '?')}"
        lines.append(f"{'  ' * depth}{_label(span)}  "
                     f"{span.get('dur', 0.0):.3f}s  ({proc})")
        for child in children.get(span["span_id"], ()):
            visit(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("ts", 0.0)):
        visit(root, 0)
    return lines


def aggregate(spans: list[dict], kind: str, field: str | None = None
              ) -> dict[str, tuple[int, float]]:
    """``{group: (count, total seconds)}`` over spans of ``kind``."""
    totals: dict[str, tuple[int, float]] = {}
    for span in spans:
        if span["kind"] != kind:
            continue
        group = span.get(field, "?") if field else kind
        count, seconds = totals.get(group, (0, 0.0))
        totals[group] = (count + 1, seconds + span.get("dur", 0.0))
    return dict(sorted(totals.items(), key=lambda kv: -kv[1][1]))


def _print_section(title: str,
                   totals: dict[str, tuple[int, float]]) -> None:
    if not totals:
        return
    print(f"\n{title}")
    for group, (count, seconds) in totals.items():
        print(f"  {group:<28} {count:>5} spans  {seconds:>9.3f}s")


def kind_percentiles(spans: list[dict]
                     ) -> dict[str, tuple[int, float, float, float]]:
    """``{kind: (count, p50, p95, max)}`` durations per span kind."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        by_kind[span["kind"]].append(span.get("dur", 0.0))
    stats = {}
    for kind, durs in by_kind.items():
        durs.sort()
        stats[kind] = (len(durs),
                       durs[int(0.50 * (len(durs) - 1))],
                       durs[int(0.95 * (len(durs) - 1))],
                       durs[-1])
    return dict(sorted(stats.items(), key=lambda kv: -kv[1][3]))


# ----------------------------------------------------------------------
# Exports: folded stacks (flamegraphs) and the HTML timeline
# ----------------------------------------------------------------------

def _frame(span: dict) -> str:
    """One flamegraph frame: no ';' (stack separator) or ' ' (the
    count separator) may survive in a frame name."""
    return _label(span).replace(";", ":").replace(" ", "_")


def fold_stacks(roots: list[dict],
                children: dict[str, list[dict]]) -> list[str]:
    """The span tree in folded-stack format (``a;b;c self_ms``).

    Each span contributes one line weighted by its *self* time —
    duration minus its children's — so a renderer's widths add up
    instead of double-counting nested spans.
    """
    lines: list[str] = []

    def visit(span: dict, stack: list[str]) -> None:
        stack = stack + [_frame(span)]
        kids = children.get(span["span_id"], ())
        self_seconds = span.get("dur", 0.0) - \
            sum(c.get("dur", 0.0) for c in kids)
        # Concurrent children (a parallel strategy race) can sum past
        # the parent's wall clock; clamp rather than emit negatives.
        self_ms = max(int(round(self_seconds * 1000)), 0)
        lines.append(";".join(stack) + f" {self_ms}")
        for child in kids:
            visit(child, stack)

    for root in sorted(roots, key=lambda s: s.get("ts", 0.0)):
        visit(root, [])
    return lines


def _lane_key(span: dict) -> tuple[str, int]:
    return (span.get("host", "?"), span.get("pid", 0))


_HTML_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title><style>
body {{ font: 12px monospace; background: #1c1c28; color: #d8d8e0;
        margin: 16px; }}
h1 {{ font-size: 14px; }}
.lane {{ position: relative; height: 26px; margin: 2px 0;
         background: #26263a; border-radius: 3px; }}
.lane-label {{ position: absolute; left: 4px; top: 5px; z-index: 2;
               color: #8888aa; pointer-events: none; }}
.span {{ position: absolute; top: 3px; height: 20px; overflow: hidden;
         border-radius: 2px; white-space: nowrap; font-size: 10px;
         line-height: 20px; padding-left: 2px; color: #101018;
         box-sizing: border-box; min-width: 2px; }}
.axis {{ color: #8888aa; margin: 8px 0; }}
</style></head><body>
<h1>{title}</h1>
<div class="axis">0s &mdash; {total:.3f}s wall, {spans} spans,
{lanes} lanes (one per process; hover a bar for details)</div>
{body}
</body></html>
"""


def render_html(spans: list[dict], title: str) -> str:
    """A dependency-free HTML timeline: one swimlane per process."""
    timed = [s for s in spans if "ts" in s]
    title = _escape(title)
    if not timed:
        return _HTML_PAGE.format(title=title, total=0.0, spans=0,
                                 lanes=0, body="<p>no spans</p>")
    t0 = min(s["ts"] for s in timed)
    total = max(s["ts"] + s.get("dur", 0.0) for s in timed) - t0
    total = max(total, 1e-9)
    lanes: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for span in timed:
        lanes[_lane_key(span)].append(span)
    rows = []
    for key in sorted(lanes):
        host, pid = key
        lane_spans = sorted(lanes[key], key=lambda s: s["ts"])
        # Annotate the lane with the worker id(s) whose jobs ran here.
        workers = sorted({s["worker"] for s in lane_spans
                          if s.get("worker")})
        label = f"{host}:{pid}"
        if workers:
            label += f" ({', '.join(workers)})"
        bars = []
        for span in lane_spans:
            left = (span["ts"] - t0) / total * 100.0
            width = max(span.get("dur", 0.0) / total * 100.0, 0.15)
            hue = sum(span["kind"].encode()) * 37 % 360
            detail = (f"{_label(span)} — {span.get('dur', 0.0):.4f}s "
                      f"@ +{span['ts'] - t0:.4f}s "
                      f"[{span['span_id']}]")
            bars.append(
                f'<div class="span" title="{_escape(detail)}" '
                f'style="left:{left:.3f}%;width:{width:.3f}%;'
                f'background:hsl({hue},65%,62%)">'
                f'{_escape(span["kind"])}</div>')
        rows.append(f'<div class="lane">'
                    f'<span class="lane-label">{_escape(label)}</span>'
                    f'{"".join(bars)}</div>')
    return _HTML_PAGE.format(title=title, total=total,
                             spans=len(timed), lanes=len(lanes),
                             body="\n".join(rows))


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="stitch a journal directory into one span tree "
                    "and report where the time went")
    parser.add_argument("trace", type=Path,
                        help="journal directory (or one "
                             "journal-*.jsonl)")
    parser.add_argument("--tree", action="store_true",
                        help="print the full indented span tree")
    parser.add_argument("--max-depth", type=int, default=3,
                        help="tree depth limit (default: 3)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless exactly one root and zero "
                             "orphans (CI mode); names the offending "
                             "span ids")
    parser.add_argument("--folded", type=Path, default=None,
                        metavar="PATH",
                        help="write the tree as folded stacks "
                             "(flamegraph.pl / speedscope input)")
    parser.add_argument("--html", type=Path, default=None,
                        metavar="PATH",
                        help="write a self-contained HTML timeline "
                             "(one swimlane per process)")
    args = parser.parse_args()

    if not args.trace.exists():
        raise SystemExit(f"no such trace: {args.trace}")
    spans = load_spans(args.trace)
    if not spans:
        raise SystemExit(f"{args.trace} holds no span records")

    traces = sorted({s.get("trace_id", "?") for s in spans})
    roots, orphans, children = build_tree(spans)
    processes = sorted({(s.get("host", "?"), s.get("pid", 0))
                        for s in spans})

    print(f"{len(spans)} spans, {len(traces)} trace(s) "
          f"{traces}, {len(processes)} process(es), "
          f"{len(roots)} root(s), {len(orphans)} orphan(s)")
    for host, pid in processes:
        count = sum(1 for s in spans
                    if (s.get("host"), s.get("pid")) == (host, pid))
        print(f"  process {host}:{pid}: {count} spans")

    # Per-phase: the campaign root's direct children.
    for root in roots:
        phases = {c["kind"]: c.get("dur", 0.0)
                  for c in children.get(root["span_id"], ())}
        if phases:
            print(f"\nphases under {root['kind']} "
                  f"({root.get('dur', 0.0):.3f}s total)")
            for name, seconds in phases.items():
                print(f"  {name:<28} {seconds:>9.3f}s")

    _print_section("jobs by worker",
                   aggregate(spans, "job", "worker"))
    _print_section("checks by strategy",
                   aggregate(spans, "check", "strategy"))

    if orphans:
        print("\norphan spans (parent not recorded):")
        for span in orphans[:10]:
            print(f"  {_label(span)} span_id={span.get('span_id')} "
                  f"parent={span.get('parent_id')}")
    if args.tree:
        print("\ndurations by span kind")
        for kind, (count, p50, p95, peak) in \
                kind_percentiles(spans).items():
            print(f"  {kind:<20} {count:>5} spans  p50 {p50:>8.3f}s  "
                  f"p95 {p95:>8.3f}s  max {peak:>8.3f}s")
        print()
        print("\n".join(render_tree(roots, children, args.max_depth)))

    if args.folded:
        lines = fold_stacks(roots, children)
        args.folded.write_text("\n".join(lines) + "\n",
                               encoding="utf-8")
        print(f"\nwrote {len(lines)} folded stacks to {args.folded}")
    if args.html:
        title = f"trace {', '.join(traces)} — {args.trace}"
        args.html.write_text(render_html(spans, title),
                             encoding="utf-8")
        print(f"wrote HTML timeline to {args.html}")

    if args.strict and (len(roots) != 1 or orphans):
        print(f"\nSTRICT: expected 1 root / 0 orphans, got "
              f"{len(roots)} / {len(orphans)}")
        if len(roots) != 1:
            ids = ", ".join(s.get("span_id", "?") for s in roots) \
                or "(none)"
            print(f"  root span ids: {ids}")
        for span in orphans:
            print(f"  orphan span id {span.get('span_id')} "
                  f"({span['kind']}) references missing parent "
                  f"{span.get('parent_id')}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
