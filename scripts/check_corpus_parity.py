#!/usr/bin/env python3
"""Corpus CI gate: round-trip verdict parity and twin byte-identity.

Four checks, all against the checked-in ``corpus/`` tree:

1. **Freshness** — regenerating the corpus (scripts/make_corpus.py)
   into a scratch directory produces byte-identical files, so the
   checked-in tree can never drift from the exporters.
2. **Twin identity** — every binary ``.aig`` re-renders as ascii
   byte-identically to its ``.aag`` twin.
3. **Size floor** — the corpus loader yields at least ``--min-designs``
   designs (default 15).
4. **Verdict parity** — for every registry design, exporting to AIGER
   and BTOR2, re-importing, and re-running k-induction (at the
   property's own ``max_k``) plus BMC (at ``--bound``) reproduces the
   native verdict exactly.

Run from the repository root: ``python scripts/check_corpus_parity.py``
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.designs import load_corpus                    # noqa: E402
from repro.designs.base import Design                    # noqa: E402
from repro.designs.registry import all_designs           # noqa: E402
from repro.formats.aiger import (read_aiger_file,        # noqa: E402
                                 write_aiger_ascii)
from repro.formats.designio import (export_design,       # noqa: E402
                                    import_design)
from repro.mc.bmc import bmc                             # noqa: E402
from repro.mc.engine import EngineConfig, ProofEngine    # noqa: E402
from repro.mc.property import SafetyProperty             # noqa: E402
from repro.sva.compile import MonitorContext             # noqa: E402


def check_freshness(corpus_dir: Path) -> list[str]:
    import make_corpus

    errors: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        fresh_root = Path(scratch)
        make_corpus.regenerate(fresh_root)
        fresh = {p.relative_to(fresh_root).as_posix(): p
                 for p in fresh_root.rglob("*") if p.is_file()}
        checked_in = {p.relative_to(corpus_dir).as_posix(): p
                      for p in corpus_dir.rglob("*") if p.is_file()}
        for rel in sorted(set(fresh) | set(checked_in)):
            if rel not in fresh:
                errors.append(f"stale corpus file not regenerated: {rel}")
            elif rel not in checked_in:
                errors.append(f"missing corpus file: {rel} "
                              "(run scripts/make_corpus.py)")
            elif fresh[rel].read_bytes() != checked_in[rel].read_bytes():
                errors.append(f"corpus file differs from regeneration: "
                              f"{rel} (run scripts/make_corpus.py)")
    return errors


def check_twins(corpus_dir: Path) -> list[str]:
    errors: list[str] = []
    for aig in sorted(corpus_dir.rglob("*.aig")):
        aag = aig.with_suffix(".aag")
        if not aag.is_file():
            errors.append(f"{aig}: binary twin without an .aag")
            continue
        rendered = write_aiger_ascii(read_aiger_file(aig))
        if rendered != aag.read_text():
            errors.append(f"{aig}: ascii rendering differs from "
                          f"{aag.name}")
    return errors


def _verdicts(design: Design, bound: int) -> dict[str, tuple[str, str]]:
    """(k-induction status, BMC status) per property, via the same
    monitor-compilation path the verification flow uses."""
    system = design.system()
    out: dict[str, tuple[str, str]] = {}
    for spec in design.properties:
        ctx = MonitorContext(system)
        prop = ctx.add(spec.sva, name=spec.name)
        engine = ProofEngine(ctx.system, EngineConfig(max_k=spec.max_k))
        ind = engine.prove(prop).status.value
        ref = bmc(ctx.system, prop, bound=bound).status.value
        out[spec.name] = (ind, ref)
    return out


def check_parity(bound: int) -> list[str]:
    errors: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        scratch_dir = Path(scratch)
        for design in all_designs():
            native = _verdicts(design, bound)
            for fmt, suffix in (("aiger", ".aag"), ("btor2", ".btor2")):
                path = scratch_dir / (design.name + suffix)
                path.write_text(export_design(design, fmt))
                back = _verdicts(import_design(path, name=design.name),
                                 bound)
                if back != native:
                    diffs = {k: (native.get(k), back.get(k))
                             for k in set(native) | set(back)
                             if native.get(k) != back.get(k)}
                    errors.append(
                        f"{design.name} [{fmt}]: verdicts diverge "
                        f"after round-trip: {diffs}")
                else:
                    print(f"  parity ok: {design.name} [{fmt}] "
                          f"({len(native)} properties)")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-dir",
                        default=str(REPO_ROOT / "corpus"))
    parser.add_argument("--min-designs", type=int, default=15)
    parser.add_argument("--bound", type=int, default=5,
                        help="BMC bound for the parity re-checks")
    parser.add_argument("--skip-parity", action="store_true",
                        help="only run the cheap structural checks")
    args = parser.parse_args(argv)
    corpus_dir = Path(args.corpus_dir)

    errors: list[str] = []
    errors += check_freshness(corpus_dir)
    errors += check_twins(corpus_dir)
    designs = load_corpus(corpus_dir)
    print(f"corpus: {len(designs)} designs, "
          f"{sum(len(d.properties) for d in designs)} properties")
    if len(designs) < args.min_designs:
        errors.append(f"corpus holds only {len(designs)} designs "
                      f"(floor: {args.min_designs})")
    if not args.skip_parity:
        errors += check_parity(args.bound)

    if errors:
        print(f"\nFAIL: {len(errors)} corpus check(s) failed:")
        for err in errors:
            print(f"  - {err}")
        return 1
    print("corpus parity: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
