"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing subsystems when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed intermediate-representation construction (width mismatch,
    unknown operator, non-boolean condition, ...)."""


class SystemError_(IRError):
    """Inconsistent transition system (duplicate signal, missing next-state
    function, dangling reference, ...)."""


class SimulationError(ReproError):
    """Simulator failure: unresolved signal, constraint that cannot be
    satisfied by stimulus retries, malformed environment."""


class BitBlastError(ReproError):
    """Word-level to bit-level lowering failure."""


class SatError(ReproError):
    """SAT solver misuse (bad literal, solving after a hard conflict, ...)."""


class HdlError(ReproError):
    """Base class for HDL frontend errors; carries source location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, col {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexError(HdlError):
    """Invalid character sequence in HDL or SVA source."""


class ParseError(HdlError):
    """Syntactically invalid HDL or SVA source."""


class ElaborationError(HdlError):
    """Semantically invalid design: undeclared identifier, width error,
    combinational loop, incomplete assignment, unsupported construct."""


class PropertyError(ReproError):
    """Invalid SVA property.  ``kind`` says how, for the hallucination
    taxonomy: ``malformed`` (not a well-formed property),
    ``unknown_signal`` (names something the design lacks) or
    ``unsupported`` (a construct or shape outside the subset)."""

    def __init__(self, message: str, kind: str = "malformed"):
        super().__init__(message)
        self.kind = kind


class TraceError(ReproError):
    """Malformed counterexample trace access."""


class GenAiError(ReproError):
    """GenAI substrate failure (unknown persona, malformed prompt, ...)."""


class FlowError(ReproError):
    """Verification flow orchestration error."""


class DesignError(ReproError):
    """Unknown design name or inconsistent design bundle."""


class FormatError(ReproError):
    """Malformed or unsupported interchange-format input/output
    (AIGER, BTOR2)."""
