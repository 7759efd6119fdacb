"""Design registry: name -> bundle lookup for the CLI, tests, benches.

Besides the built-in RTL designs, the registry resolves *corpus*
designs: AIGER/BTOR2 files on disk, loaded through
:func:`repro.formats.designio.import_design`.  :func:`load_corpus`
walks a directory tree; :func:`get_design` additionally falls back to
corpus-file resolution (via the ``REPRO_CORPUS`` search path and the
working directory) so distributed workers — which receive design
*names* across process boundaries — find corpus designs with no extra
plumbing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.errors import DesignError, ReproError
from repro.designs.base import Design
from repro.designs.arbiter import rr_arbiter, traffic_onehot
from repro.designs.counters import (
    alu_accum,
    sync_counters,
    sync_counters_bug,
    updown_counter,
)
from repro.designs.ecc import ecc_pipeline
from repro.designs.fifo import fifo_ctrl
from repro.designs.sequential import gray_counter, lfsr16, shift_pipe
from repro.designs.stress import counter_bank

CORPUS_ENV = "REPRO_CORPUS"

_ALL: dict[str, Design] = {
    design.name: design
    for design in (
        sync_counters,
        sync_counters_bug,
        updown_counter,
        alu_accum,
        gray_counter,
        lfsr16,
        shift_pipe,
        fifo_ctrl,
        rr_arbiter,
        traffic_onehot,
        ecc_pipeline,
        counter_bank,
    )
}

# Corpus-file cache keyed by resolved path; the mtime guards against a
# regenerated corpus being served stale within one long process.
_corpus_cache: dict[Path, tuple[float, Design]] = {}


def _corpus_family(relpath: Path) -> str:
    """Family of a corpus design: its first subdirectory, else "corpus"."""
    parts = relpath.parts
    return parts[0] if len(parts) > 1 else "corpus"


def _load_corpus_file(path: Path, name: str, family: str) -> Design:
    from repro.formats.designio import import_design

    resolved = path.resolve()
    mtime = resolved.stat().st_mtime
    cached = _corpus_cache.get(resolved)
    if cached is not None and cached[0] == mtime \
            and cached[1].name == name:
        return cached[1]
    try:
        design = import_design(path, name=name, family=family)
    except ReproError as exc:
        raise DesignError(f"cannot load corpus design {path}: {exc}")
    _corpus_cache[resolved] = (mtime, design)
    return design


def load_corpus(root: str | Path) -> list[Design]:
    """Load every AIGER/BTOR2 file under ``root`` as a Design.

    Designs are named by their POSIX-style path relative to ``root``
    (so names stay stable across machines) and grouped into families by
    first subdirectory.  Raises :class:`DesignError` when the tree
    holds no corpus files at all.
    """
    from repro.formats.designio import CORPUS_SUFFIXES

    root = Path(root)
    if not root.is_dir():
        raise DesignError(f"corpus directory {root} does not exist")
    designs: list[Design] = []
    for path in sorted(root.rglob("*")):
        if not path.is_file() \
                or path.suffix.lower() not in CORPUS_SUFFIXES:
            continue
        rel = path.relative_to(root)
        designs.append(_load_corpus_file(
            path, name=rel.as_posix(), family=_corpus_family(rel)))
    if not designs:
        raise DesignError(
            f"corpus directory {root} holds no "
            f"{'/'.join(CORPUS_SUFFIXES)} files")
    return designs


def _corpus_roots() -> list[Path]:
    roots = [Path(p) for p in
             os.environ.get(CORPUS_ENV, "").split(os.pathsep) if p]
    roots.append(Path.cwd())
    return roots


def _resolve_corpus_name(name: str) -> Design | None:
    """Resolve a corpus design name (a relative file path) to a Design.

    Searched against each ``REPRO_CORPUS`` root and the working
    directory, in order.  Returns None when nothing matches so the
    caller can raise the standard registry error.
    """
    from repro.formats.designio import CORPUS_SUFFIXES

    candidate = Path(name)
    if candidate.suffix.lower() not in CORPUS_SUFFIXES \
            or candidate.is_absolute():
        return None
    for root in _corpus_roots():
        path = root / candidate
        if path.is_file():
            return _load_corpus_file(
                path, name=name, family=_corpus_family(candidate))
    return None


def get_design(name: str) -> Design:
    """Look up a built-in design by name, or a corpus file by path."""
    design = _ALL.get(name)
    if design is None:
        design = _resolve_corpus_name(name)
    if design is None:
        raise DesignError(
            f"unknown design {name!r}; available: {sorted(_ALL)} "
            f"(corpus files resolve against ${CORPUS_ENV} and the "
            "working directory)")
    return design


def all_designs() -> list[Design]:
    """All built-in designs, stable order."""
    return list(_ALL.values())


def design_names() -> list[str]:
    return list(_ALL)


def select_designs(names: Iterable[str] | None = None) -> list[Design]:
    """Resolve a campaign's design subset (default: the whole registry).

    Unknown names fail up front with the registry's standard error, and
    duplicates are collapsed (first occurrence wins) so a campaign never
    double-schedules a design.
    """
    if not names:
        return all_designs()
    selected: dict[str, Design] = {}
    for name in names:
        if name not in selected:
            selected[name] = get_design(name)
    return list(selected.values())


def designs_by_family(designs: Iterable[Design] | None = None
                      ) -> dict[str, list[Design]]:
    """Designs grouped by family.

    Groups the registry by default; pass ``designs`` (e.g. a corpus
    load) to group an explicit set instead.
    """
    grouped: dict[str, list[Design]] = {}
    for design in (designs if designs is not None else _ALL.values()):
        grouped.setdefault(design.family, []).append(design)
    return grouped
