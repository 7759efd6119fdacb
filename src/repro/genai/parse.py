"""Extraction and validation of SVA assertions from LLM response text.

Models answer in free-form prose; this module recovers the machine-usable
assertions the way the paper's flow must: find candidate SVA snippets
(fenced or not), parse them, and resolve every referenced signal against
the design.  Failures are *classified*, because the hallucination taxonomy
(syntax error vs unknown signal vs unsupported construct) is one of the
measurements the Section V model comparison reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import HdlError, PropertyError
from repro.ir.system import TransitionSystem
from repro.sva.ast import PropertyAst
from repro.sva.compile import MonitorContext
from repro.sva.parser import parse_property

_PROPERTY_BLOCK = re.compile(
    r"property\s+[a-zA-Z_][a-zA-Z0-9_]*\s*;.*?endproperty",
    re.DOTALL)
_FENCE = re.compile(r"```(?:systemverilog|sva|verilog)?\s*\n(.*?)```",
                    re.DOTALL)


@dataclass
class ExtractedAssertion:
    """One assertion recovered from a response, with its validation verdict.

    ``status`` is one of ``ok``, ``syntax_error``, ``unknown_signal``,
    ``unsupported``.
    """

    raw_text: str
    status: str = "ok"
    error: str = ""
    name: str = ""
    ast: PropertyAst | None = None

    @property
    def usable(self) -> bool:
        return self.status == "ok"


def extract_assertions(response_text: str) -> list[str]:
    """Find candidate SVA snippets in free-form response text.

    ``property ... endproperty`` blocks are taken wherever they appear
    (inside or outside code fences — weak models forget fences).  Fenced
    code without a ``property`` wrapper is treated as a bare body.
    """
    snippets: list[str] = []
    seen_spans: list[tuple[int, int]] = []
    for m in _PROPERTY_BLOCK.finditer(response_text):
        snippets.append(m.group(0))
        seen_spans.append(m.span())
    for m in _FENCE.finditer(response_text):
        if any(s <= m.start() and m.end() <= e or
               (m.start() <= s and e <= m.end())
               for s, e in seen_spans):
            continue
        body = m.group(1).strip()
        if body and "property" not in body:
            snippets.append(body)
    return snippets


def validate_assertions(system: TransitionSystem,
                        snippets: list[str]) -> list[ExtractedAssertion]:
    """Parse and name-resolve each snippet against the design.

    Validation compiles each snippet against a *scratch* clone, so no
    monitor state leaks into the system used for proving; the flows
    recompile usable assertions into their shared context afterwards.
    """
    out: list[ExtractedAssertion] = []
    for index, raw in enumerate(snippets):
        record = ExtractedAssertion(raw_text=raw)
        try:
            ast_node = parse_property(raw, name=f"candidate_{index}")
        except (PropertyError, HdlError) as exc:
            record.status = "syntax_error"
            record.error = str(exc)
            out.append(record)
            continue
        record.name = ast_node.name
        record.ast = ast_node
        scratch = MonitorContext(system)
        try:
            scratch.add(ast_node)
        except PropertyError as exc:
            record.status = "syntax_error" if exc.kind == "malformed" \
                else exc.kind
            record.error = str(exc)
        out.append(record)
    return out
