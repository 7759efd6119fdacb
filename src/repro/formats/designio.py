"""Design-level interchange: export registry designs, import files.

This is the seam between the file formats and the rest of the stack.
:func:`export_design` compiles a design's SVA properties into monitor
logic (exactly as the verification flow does) and serializes the
monitored system; :func:`import_design` turns an on-disk ``.aag`` /
``.aig`` / ``.btor2`` file back into a first-class
:class:`~repro.designs.base.Design` whose pre-populated system cache
feeds every downstream layer (verify, campaign, portfolio, PDR, proof
store, distributed workers) with zero format-specific code.
"""

from __future__ import annotations

from pathlib import Path

from repro.designs.base import Design, PropertySpec
from repro.errors import FormatError
from repro.formats import aiger as aiger_mod
from repro.formats import btor2 as btor2_mod
from repro.formats.bridge import (aiger_to_system, prop_metadata_line,
                                  system_to_aiger)
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty

EXPORT_FORMATS = ("aiger", "btor2")

AIGER_SUFFIXES = (".aag", ".aig")
BTOR2_SUFFIXES = (".btor2", ".btor")
CORPUS_SUFFIXES = AIGER_SUFFIXES + BTOR2_SUFFIXES


def compile_for_export(design: Design) -> tuple[
        TransitionSystem, list[tuple[str, "object", int]], list[str]]:
    """Compile all of a design's properties onto one monitored system.

    Returns ``(system, props, metadata)`` where ``props`` are the
    ``(name, bad_expr, valid_from)`` triples the format writers take and
    ``metadata`` are ``repro-prop`` comment lines preserving each
    property's expected verdict and depth budget across the round-trip.
    """
    from repro.sva.compile import MonitorContext

    ctx = MonitorContext(design.system())
    props: list[tuple[str, object, int]] = []
    metadata: list[str] = []
    index = 0
    for spec in design.properties:
        if spec.kind == "justice":
            # Justice obligations have no SVA monitor; they live on the
            # system itself and the AIGER writer emits them directly.
            continue
        compiled: SafetyProperty = ctx.add(spec.sva, name=spec.name)
        props.append((spec.name, compiled.bad, compiled.valid_from))
        metadata.append(prop_metadata_line(
            index, spec.name, spec.expect, spec.max_k))
        index += 1
    return ctx.system, props, metadata


def export_design(design: Design, fmt: str,
                  binary: bool = False) -> str | bytes:
    """Serialize ``design`` (monitors included) in an interchange format.

    Returns text for ``btor2`` and ascii ``aiger``; bytes for
    binary ``aiger`` (``binary=True``).
    """
    if fmt not in EXPORT_FORMATS:
        raise FormatError(
            f"unknown export format {fmt!r}; expected one of "
            f"{', '.join(EXPORT_FORMATS)}")
    system, props, metadata = compile_for_export(design)
    if fmt == "btor2":
        return btor2_mod.write_btor2(system, props, metadata=metadata)
    model = system_to_aiger(system, props, metadata=metadata)
    if binary:
        return aiger_mod.write_aiger_binary(model)
    return aiger_mod.write_aiger_ascii(model)


def _props_to_specs(props: list[dict],
                    source: str) -> list[PropertySpec]:
    if not props:
        raise FormatError(
            f"{source}: no bad-state properties to verify (file has "
            "neither bad sections nor outputs)")
    return [PropertySpec(name=p["name"], sva=p["sva"],
                         expect=p["expect"], max_k=p["max_k"],
                         kind=p.get("kind", "safety"))
            for p in props]


def import_design(path: str | Path, name: str | None = None,
                  family: str = "corpus") -> Design:
    """Load an ``.aag``/``.aig``/``.btor2``/``.btor`` file as a Design.

    The returned design has no RTL; its transition system cache is
    pre-populated with the parsed netlist and its properties are the
    file's bad-state checks (``expect`` defaults to ``"unknown"`` unless
    ``repro-prop`` metadata says otherwise).
    """
    path = Path(path)
    design_name = name or path.stem
    suffix = path.suffix.lower()
    if suffix in AIGER_SUFFIXES:
        model = aiger_mod.read_aiger_file(path)
        system, props = aiger_to_system(model, design_name)
    elif suffix in BTOR2_SUFFIXES:
        system, props = btor2_mod.read_btor2_file(path)
        system.name = design_name
    else:
        raise FormatError(
            f"cannot import {path}: unsupported suffix {suffix!r} "
            f"(expected one of {', '.join(CORPUS_SUFFIXES)})")
    design = Design(
        name=design_name,
        rtl="",
        spec=f"Imported from {path.name}",
        properties=_props_to_specs(props, str(path)),
        family=family,
        notes=f"imported:{suffix.lstrip('.')}",
    )
    design._system_cache = system
    return design
