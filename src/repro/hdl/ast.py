"""Abstract syntax tree for the SystemVerilog subset.

Plain dataclasses; every node carries its source line for diagnostics.
Expression nodes are shared with the SVA property frontend (which adds its
own sequence layer on top).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class HdlExpr:
    line: int = 0


@dataclass
class Number(HdlExpr):
    value: int = 0
    width: int | None = None  # None: unsized decimal, or '0 / '1 fill
                              # (value 0 / -1: expands to context width)


@dataclass
class Ident(HdlExpr):
    name: str = ""


@dataclass
class Unary(HdlExpr):
    op: str = ""          # ! ~ & | ^ ~& ~| ~^ + - (reduction or logical)
    operand: HdlExpr | None = None


@dataclass
class Binary(HdlExpr):
    op: str = ""
    left: HdlExpr | None = None
    right: HdlExpr | None = None


@dataclass
class Ternary(HdlExpr):
    cond: HdlExpr | None = None
    then: HdlExpr | None = None
    other: HdlExpr | None = None


@dataclass
class Concat(HdlExpr):
    parts: list[HdlExpr] = field(default_factory=list)


@dataclass
class Repl(HdlExpr):
    count: HdlExpr | None = None
    operand: HdlExpr | None = None


@dataclass
class Index(HdlExpr):
    """Bit select or array element select: ``base[index]``."""
    base: HdlExpr | None = None
    index: HdlExpr | None = None


@dataclass
class Slice(HdlExpr):
    """Constant part select ``base[msb:lsb]``."""
    base: HdlExpr | None = None
    msb: HdlExpr | None = None
    lsb: HdlExpr | None = None


@dataclass
class Call(HdlExpr):
    """System function call (``$countones`` etc. — SVA layer mostly)."""
    func: str = ""
    args: list[HdlExpr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)
    label: str | None = None


@dataclass
class Assign(Stmt):
    """Procedural assignment; ``blocking`` distinguishes ``=`` from ``<=``."""
    target: HdlExpr | None = None  # Ident, Index, or Slice
    value: HdlExpr | None = None
    blocking: bool = False


@dataclass
class If(Stmt):
    cond: HdlExpr | None = None
    then: Stmt | None = None
    other: Stmt | None = None


@dataclass
class CaseItem:
    labels: list[HdlExpr]          # empty list = default
    body: Stmt
    line: int = 0


@dataclass
class Case(Stmt):
    subject: HdlExpr | None = None
    items: list[CaseItem] = field(default_factory=list)


@dataclass
class NullStmt(Stmt):
    pass


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------

@dataclass
class Range:
    """Packed range ``[msb:lsb]`` (constant expressions)."""
    msb: HdlExpr
    lsb: HdlExpr


@dataclass
class Port:
    name: str
    direction: str            # "input" | "output" | "inout"
    range_: Range | None
    line: int = 0


@dataclass
class Net:
    """Internal signal declaration (logic/wire/reg)."""
    name: str
    range_: Range | None
    array_range: Range | None = None   # unpacked dimension (memory)
    initial: HdlExpr | None = None
    line: int = 0


@dataclass
class Param:
    name: str
    value: HdlExpr
    local: bool = False
    line: int = 0


@dataclass
class ContinuousAssign:
    target: HdlExpr
    value: HdlExpr
    line: int = 0


@dataclass
class SensItem:
    """One event in a sensitivity list: (edge, signal name)."""
    edge: str   # "posedge" | "negedge"
    signal: str


@dataclass
class AlwaysFF:
    sensitivity: list[SensItem]
    body: Stmt
    line: int = 0


@dataclass
class AlwaysComb:
    body: Stmt
    line: int = 0


@dataclass
class Instance:
    module: str
    name: str
    param_overrides: dict[str, HdlExpr]
    connections: dict[str, HdlExpr]
    line: int = 0
    #: Positional connections (``child c (a, b)``); resolved against the
    #: child's port order during elaboration, then merged into
    #: ``connections``.  Mutually exclusive with named connections.
    positional: list[HdlExpr] = field(default_factory=list)
    #: ``.*`` appeared in the port list: every unconnected child port
    #: binds to the same-named parent signal during elaboration.
    wildcard: bool = False


@dataclass
class Module:
    name: str
    ports: list[Port]
    params: list[Param]
    nets: list[Net]
    assigns: list[ContinuousAssign]
    always_ffs: list[AlwaysFF]
    always_combs: list[AlwaysComb]
    instances: list[Instance]
    line: int = 0

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None
