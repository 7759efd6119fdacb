"""Compilation of SVA properties into safety monitors.

Every property becomes a ``bad`` expression over a monitor-augmented clone
of the design:

* ``$past``/``$stable``/``$rose``/``$fell`` spawn delay-chain registers
  with *nondeterministic* initial values; the property's ``valid_from``
  skips the warm-up cycles where the chain content is undefined;
* sequence antecedents spawn match-chain registers initialized to 0 (no
  match can predate time zero, so no warm-up is needed);
* ``disable iff`` gates the failure condition.

Monitor registers are genuine state: in the k-induction step case they
start arbitrary, exactly like commercial tools treat assertion state —
which is why ``$past``-style properties often *need* helper invariants,
the phenomenon the paper's flows address.
"""

from __future__ import annotations

import itertools

from repro.errors import PropertyError
from repro.hdl import ast as hast
from repro.hdl.lower import Lowerer
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.mc.property import SafetyProperty
from repro.sva.ast import PropertyAst, SequenceAst
from repro.sva.parser import parse_property

_uid_counter = itertools.count()

#: Sampled-value calls over (value now, value one cycle ago); ``$rose`` /
#: ``$fell`` see bit 0 only.
_SAMPLED = {
    "$stable": E.eq,
    "$changed": E.ne,
    "$rose": lambda now, before: E.and_(now, E.not_(before)),
    "$fell": lambda now, before: E.and_(E.not_(now), before),
}


class MonitorContext:
    """Accumulates compiled properties over one shared design clone.

    The shared clone matters: when the repair flow proves a helper
    assertion and then assumes it while re-proving the target, both
    properties' monitor registers must live in the *same* transition
    system.
    """

    def __init__(self, system: TransitionSystem):
        self.base = system
        self.system = system.clone(f"{system.name}+monitors")
        self.properties: dict[str, SafetyProperty] = {}

    def add(self, text_or_ast: str | PropertyAst,
            name: str | None = None) -> SafetyProperty:
        """Parse (if needed) and compile one property into the context."""
        if isinstance(text_or_ast, str):
            ast_node = parse_property(text_or_ast, name=name)
        else:
            ast_node = text_or_ast
        if name is not None:
            ast_node.name = name
        final_name = ast_node.name
        if final_name in self.properties:
            final_name = f"{final_name}_{next(_uid_counter)}"
        compiler = _PropertyCompiler(self.system, final_name)
        prop = compiler.compile(ast_node)
        self.properties[final_name] = prop
        return prop


def compile_property(system: TransitionSystem,
                     text_or_ast: str | PropertyAst,
                     name: str | None = None
                     ) -> tuple[TransitionSystem, SafetyProperty]:
    """One-shot convenience: compile a property onto a fresh clone."""
    ctx = MonitorContext(system)
    prop = ctx.add(text_or_ast, name=name)
    return ctx.system, prop


# ---------------------------------------------------------------------------


class _PropertyCompiler:
    """Lowers one property AST against a (mutable) monitored system."""

    def __init__(self, system: TransitionSystem, prop_name: str):
        self.system = system
        self.prop_name = prop_name
        self.valid_from = 0
        self._mon_index = itertools.count()
        self.lowerer = Lowerer(
            signal=self._signal, error=self._error, arrays=system.arrays,
            calls={"$past": self._call_past,
                   **dict.fromkeys(_SAMPLED, self._call_sampled)},
            logical={"->": E.bool_implies})

    # -- helpers ---------------------------------------------------------

    def _mon_name(self, tag: str) -> str:
        return f"_mon.{self.prop_name}.{tag}{next(self._mon_index)}"

    def _delay_reg(self, value: E.Expr, tag: str,
                   init: E.Expr | None) -> E.Expr:
        """One monitor register whose next value is ``value``."""
        name = self._mon_name(tag)
        reg = self.system.add_state(name, value.width)
        # Next functions must range over inputs/states only; property
        # expressions may reference defines, so resolve them here.
        self.system.set_next(name, self.system.resolve_defines(value))
        if init is not None:
            self.system.set_init(name, init)
        return reg

    def _past(self, value: E.Expr, depth: int) -> E.Expr:
        """A ``depth``-cycle delayed copy (nondeterministic warm-up)."""
        current = value
        for _ in range(depth):
            current = self._delay_reg(current, "past", init=None)
        self.valid_from = max(self.valid_from, depth)
        return current

    def _delayed_match(self, flag: E.Expr, depth: int) -> E.Expr:
        """Delay a 1-bit match flag; warm-up cycles read as 'no match'."""
        current = flag
        for _ in range(depth):
            current = self._delay_reg(current, "seq", init=E.false())
        return current

    # -- expression lowering (the property door of hdl/lower.py) ----------

    def _error(self, message: str, line: int,
               kind: str = "unsupported") -> PropertyError:
        return PropertyError(
            f"property {self.prop_name!r}: {message} (line {line})", kind)

    def _signal(self, name: str, line: int) -> E.Expr:
        if not self.system.has_signal(name):
            raise self._error(f"unknown signal {name!r}", line,
                              "unknown_signal")
        ref = self.system.lookup(name)
        # Defines are referenced by variable so traces stay readable; the
        # model checker resolves them via resolve_defines.
        if name in self.system.defines:
            return E.var(name, ref.width)
        return ref

    def _call_past(self, e: hast.Call, env) -> E.Expr:
        value = self.lowerer.arg(e, env, at_most=2)
        depth = self.lowerer.const(e.args[1]) if len(e.args) > 1 else 1
        if depth < 1:
            raise self._error("$past depth must be >= 1", e.line)
        return self._past(value, depth)

    def _call_sampled(self, e: hast.Call, env) -> E.Expr:
        value = self.lowerer.arg(e, env)
        if e.func in ("$rose", "$fell"):
            value = E.extract(value, 0, 0)
        return _SAMPLED[e.func](value, self._past(value, 1))

    # -- property compilation ---------------------------------------------

    def _sequence_match(self, seq: SequenceAst) -> E.Expr:
        """1-bit flag: the sequence's last element matched this cycle."""
        if seq.elements and seq.elements[0][0] != 0:
            raise PropertyError(
                f"property {self.prop_name!r}: a leading ## delay is only "
                "meaningful in a consequent")
        matched: E.Expr | None = None
        for delay, expr in seq.elements:
            flag = self.lowerer.cond(expr)
            if matched is None:
                matched = flag
            else:
                matched = E.and_(self._delayed_match(matched, delay), flag)
        assert matched is not None
        return matched

    def compile(self, prop: PropertyAst) -> SafetyProperty:
        if prop.antecedent is None:
            if prop.consequent.elements[0][0] != 0:
                raise PropertyError(
                    f"property {self.prop_name!r}: a bare invariant cannot "
                    "start with a ## delay")
            good = self.lowerer.cond(prop.consequent.elements[0][1])
            bad = E.not_(good)
        else:
            matched = self._sequence_match(prop.antecedent)
            if prop.op == "|=>":
                matched = self._delayed_match(matched, 1)
            # Consequent: every element must hold at its offset from the
            # antecedent match; failure of any element is a violation.
            fails = []
            delayed = matched
            for delay, expr in prop.consequent.elements:
                delayed = self._delayed_match(delayed, delay)
                fails.append(E.and_(delayed,
                                    E.not_(self.lowerer.cond(expr))))
            bad = E.bool_or(*fails)
        if prop.disable is not None:
            bad = E.and_(bad, E.not_(self.lowerer.cond(prop.disable)))
        return SafetyProperty(self.prop_name, bad,
                              valid_from=self.valid_from,
                              source_text=prop.source_text.strip())
