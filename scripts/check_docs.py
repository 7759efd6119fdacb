#!/usr/bin/env python3
"""Docs gate: internal links must resolve, quickstart snippets must run.

Conventions this script enforces (and the docs follow):

* Relative markdown links in ``README.md`` and ``docs/*.md`` must point
  at files that exist; ``#anchor`` fragments must match a heading in
  the target file (GitHub slug rules, simplified).  Links that resolve
  outside the repository (e.g. the CI badge's ``../../actions/...``
  GitHub routing trick) and absolute URLs are skipped.
* Fenced ``bash`` blocks are *runnable documentation*: every
  ``repro-verify ...`` line in them is executed and must exit 0.  The
  leading ``repro-verify`` runs as ``<this python> -m repro`` with the
  tree's ``src/`` first on ``PYTHONPATH``, so the gate checks this
  checkout and needs no installed console script.
  Long-running commands (``serve``, ``worker``), backgrounded lines
  (trailing ``&``), and non-``repro-verify`` lines are skipped.
  Illustrative shell transcripts belong in ``console`` fences, which
  are never executed.

Run from the repository root: ``python scripts/check_docs.py``
(add ``--no-run`` to check links only).
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"^```(\w*)\s*$")
SNIPPET_TIMEOUT = 600


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's heading-anchor slug, close enough for our docs."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(path: Path) -> set[str]:
    return {github_slug(h) for h in HEADING_RE.findall(path.read_text())}


def check_links(path: Path) -> list[str]:
    errors = []
    for target in LINK_RE.findall(path.read_text()):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):   # http:, mailto:…
            continue
        name, _, anchor = target.partition("#")
        resolved = (path.parent / name).resolve() if name else path
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            continue    # deliberate out-of-repo link (CI badge routing)
        if not resolved.exists():
            errors.append(f"{path.name}: broken link -> {target}")
            continue
        if anchor and resolved.suffix == ".md" and \
                anchor not in anchors_in(resolved):
            errors.append(f"{path.name}: missing anchor -> {target}")
    return errors


def bash_snippet_lines(path: Path) -> list[str]:
    """The runnable command lines of every ``bash`` fence in one file."""
    lines, fence_lang, pending = [], None, ""
    for raw in path.read_text().splitlines():
        fence = FENCE_RE.match(raw.strip())
        if fence:
            fence_lang = None if fence_lang is not None else \
                (fence.group(1) or "text")
            pending = ""
            continue
        if fence_lang != "bash":
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        lines.append(line)
    return lines


def runnable(line: str) -> bool:
    if not line.startswith("repro-verify "):
        return False
    if line.rstrip().endswith("&"):
        return False
    subcommand = line.split()[1]
    return subcommand not in ("serve", "worker")


def snippet_env() -> dict[str, str]:
    """The environment snippets run in: this tree's ``src/`` first."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_snippets(path: Path) -> list[str]:
    errors = []
    env = snippet_env()
    for line in bash_snippet_lines(path):
        if not runnable(line):
            continue
        print(f"  $ {line}")
        command = f"{shlex.quote(sys.executable)} -m repro" + \
            line[len("repro-verify"):]
        started = time.perf_counter()
        try:
            proc = subprocess.run(command, shell=True, cwd=REPO_ROOT,
                                  env=env, timeout=SNIPPET_TIMEOUT,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            errors.append(f"{path.name}: snippet timed out -> {line}")
            continue
        print(f"    ... exit {proc.returncode} in "
              f"{time.perf_counter() - started:.1f}s")
        if proc.returncode != 0:
            errors.append(
                f"{path.name}: snippet failed ({proc.returncode}) -> "
                f"{line}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-run", action="store_true",
                        help="check links only; skip running snippets")
    args = parser.parse_args()

    errors = []
    for path in doc_files():
        print(f"checking {path.relative_to(REPO_ROOT)}")
        errors += check_links(path)
        if not args.no_run:
            errors += run_snippets(path)

    if errors:
        print("\nFAIL")
        for error in errors:
            print(f"  {error}")
        return 1
    print("\ndocs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
