#!/usr/bin/env python3
"""Regenerate the checked-in benchmark corpus under ``corpus/``.

The corpus has two halves:

* **Exported registry designs** — every built-in design serialized as
  ascii AIGER into ``corpus/<family>/<name>.aag``, a BTOR2 twin for a
  word-level subset, and binary ``.aig`` twins for a few (the
  round-trip CI gate checks the twins stay byte-equivalent).
* **Hand-written classics** — tiny AIGER models in the style of the
  HWMCC starter set (toggle latches, saturating counters, a ring
  shifter), carrying ``repro-prop`` metadata so their expected verdicts
  survive import.

Run from the repository root::

    python scripts/make_corpus.py [--corpus-dir DIR]

Regeneration is deterministic: running it twice produces identical
bytes, so CI can diff the tree against a fresh export.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.designs.registry import all_designs          # noqa: E402
from repro.formats.aiger import (read_aiger,             # noqa: E402
                                 write_aiger_ascii, write_aiger_binary)
from repro.formats.designio import export_design        # noqa: E402

#: Designs that also get a BTOR2 twin (word-level export coverage).
BTOR2_TWINS = {"updown_counter", "alu_accum", "fifo_ctrl", "lfsr16"}

#: Designs that also get a binary ``.aig`` twin (byte-identity gate).
BINARY_TWINS = {"updown_counter", "sync_counters_bug", "gray_counter"}


# Hand-written classics.  Comments carry repro-prop metadata (see
# repro.formats.bridge) so importers know the expected verdicts.  The
# texts below are normalized through the reader+writer before landing
# on disk, so the checked-in files are always canonical serializations.
CLASSICS: dict[str, str] = {
    # Toggle latch: starts 0, inverts every cycle; bad = latch AND NOT
    # latch — structurally unsatisfiable, safe at k=1.
    "classics/toggle_safe.aag": """\
aag 2 0 1 0 1 1
2 3 0
4
4 3 2
l0 toggle
b0 never_both
c
repro-prop 0 name=never_both expect=proven max_k=2
""",
    # Two-bit ripple counter 00->10->01->11; bad when both bits are 1,
    # which happens at cycle 3.  Violated.
    "classics/count2_bad.aag": """\
aag 6 0 2 0 4 1
2 3 0
4 11 0
12
6 4 3
8 5 2
10 9 7
12 4 2
l0 bit0
l1 bit1
b0 reaches_three
c
repro-prop 0 name=reaches_three expect=violated max_k=5
""",
    # Constant-zero self-loop latch with bad = latch: trivially safe,
    # the smallest possible model-checking instance.
    "classics/stuck_zero.aag": """\
aag 1 0 1 0 0 1
2 2 0
2
l0 stuck
b0 never_one
c
repro-prop 0 name=never_one expect=proven max_k=1
""",
    # Three-stage one-hot ring: the token rotates r0->r1->r2->r0.  Bad
    # if two stages hold the token at once; rotation preserves the
    # token count, so this is 1-inductive from the one-hot reset.
    "classics/ring3.aag": """\
aag 8 0 3 0 5 1
2 6 1
4 2 0
6 4 0
17
8 4 2
10 6 2
12 6 4
14 11 9
16 14 13
l0 r0
l1 r1
l2 r2
b0 two_tokens
c
repro-prop 0 name=two_tokens expect=proven max_k=3
""",
    # Uninitialized latch fed by a free input; bad = latch value.
    # Violated at cycle 0 by choosing the initial latch value.
    "classics/free_latch.aag": """\
aag 2 1 1 0 0 1
2
4 2 4
4
i0 din
l0 q
b0 can_be_one
c
repro-prop 0 name=can_be_one expect=violated max_k=2
""",
}


def regenerate(corpus_dir: Path) -> list[Path]:
    written: list[Path] = []

    def emit(rel: str, payload: str | bytes) -> None:
        path = corpus_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload)
        written.append(path)

    for design in all_designs():
        base = f"{design.family}/{design.name}"
        ascii_text = export_design(design, "aiger")
        emit(base + ".aag", ascii_text)
        if design.name in BINARY_TWINS:
            emit(base + ".aig", export_design(design, "aiger",
                                              binary=True))
        if design.name in BTOR2_TWINS:
            emit(base + ".btor2", export_design(design, "btor2"))

    for rel, text in CLASSICS.items():
        # Round through the reader+writer: validates the hand-written
        # model and lands the canonical serialization on disk (so the
        # .aig twin's ascii rendering is byte-identical to the .aag).
        model = read_aiger(text)
        emit(rel, write_aiger_ascii(model))
        if rel.endswith("toggle_safe.aag"):
            emit(rel[:-4] + ".aig", write_aiger_binary(model))
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-dir", default=str(REPO_ROOT / "corpus"),
                        help="output directory (default: corpus/)")
    args = parser.parse_args(argv)
    corpus_dir = Path(args.corpus_dir)
    written = regenerate(corpus_dir)
    print(f"wrote {len(written)} corpus files under {corpus_dir}")
    for path in written:
        print(f"  {path.relative_to(corpus_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
