"""The IR <-> AIG boundary, in both directions.

Export lowers a :class:`~repro.ir.system.TransitionSystem` plus compiled
safety properties through :class:`~repro.aig.bitblast.BitBlaster` into a
canonical :class:`~repro.formats.aiger.AigerModel`: every state bit
becomes a latch, properties become bad-state literals, and system
constraints become invariant constraints.  Import reconstructs a
bit-level transition system from an AIGER netlist — each latch a 1-bit
state, each bad literal a synthesized ``bad_*`` define with a matching
``!bad_*`` SVA property — so imported designs flow through the same
monitor/engine pipeline as native ones.

Two encodings bridge semantic gaps AIGER cannot express directly:

* **Non-constant initial values.**  AIGER resets are 0/1/uninitialized
  per bit.  A state whose init expression is not constant exports as an
  uninitialized latch plus the invariant constraint
  ``at_least_one | (state == init)`` where ``at_least_one`` is a flag
  latch that is 0 exactly at cycle 0 — forcing the equation at cycle 0
  and nothing later.
* **Delayed properties** (``valid_from > 0`` from ``$past`` monitors).
  The bad literal is gated with a one-hot delay chain of flag latches
  so the property cannot fire before its monitor warm-up completes.

Property metadata (name, expected verdict, induction depth) travels in
the AIGER comment section / BTOR2 ``;`` comments as ``repro-prop``
lines, so a round trip re-imports with verdict expectations and depth
budgets intact; files from other tools simply default to
``expect=unknown``.
"""

from __future__ import annotations

import re

from repro.aig.bitblast import BitBlaster
from repro.aig.graph import AIG, FALSE, TRUE, is_negated, negate, node_of
from repro.errors import FormatError
from repro.formats.aiger import AigerModel, Latch
from repro.ir import expr as E
from repro.ir.system import TransitionSystem

_PROP_RE = re.compile(
    r"^repro-prop\s+(\d+)\s+name=(\S+)\s+expect=(\S+)\s+max_k=(\d+)$")

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")


def sanitize_identifier(name: str, taken: set[str],
                        fallback: str) -> str:
    """A fresh SVA-safe identifier derived from ``name``."""
    ident = _IDENT_RE.sub("_", name) or fallback
    if not (ident[0].isalpha() or ident[0] == "_"):
        ident = "_" + ident
    candidate = ident
    suffix = 1
    while candidate in taken:
        candidate = f"{ident}_{suffix}"
        suffix += 1
    taken.add(candidate)
    return candidate


def prop_metadata_line(index: int, name: str, expect: str,
                       max_k: int) -> str:
    return f"repro-prop {index} name={name} expect={expect} max_k={max_k}"


def parse_prop_metadata(comments: list[str]) -> dict[int, dict]:
    """``repro-prop`` comment lines, keyed by bad index."""
    meta: dict[int, dict] = {}
    for line in comments:
        m = _PROP_RE.match(line.strip())
        if m:
            meta[int(m.group(1))] = {
                "name": m.group(2), "expect": m.group(3),
                "max_k": int(m.group(4))}
    return meta


# ---------------------------------------------------------------------------
# Export: TransitionSystem -> AigerModel
# ---------------------------------------------------------------------------


class _DelayChain:
    """Flag latches ``t>=1, t>=2, ...`` grown on demand.

    Each flag is an extra AIG input that the caller registers as a
    latch: reset 0, next = previous flag (TRUE for the first).
    """

    def __init__(self, aig: AIG):
        self.aig = aig
        self.flags: list[int] = []   # flags[k-1] is 1 iff cycle >= k

    def at_least(self, k: int) -> int:
        if k <= 0:
            return TRUE
        while len(self.flags) < k:
            self.flags.append(self.aig.new_input())
        return self.flags[k - 1]


def system_to_aiger(system: TransitionSystem,
                    properties: list[tuple[str, E.Expr, int]],
                    metadata: list[str] | None = None) -> AigerModel:
    """Lower a transition system to a canonical AIGER model.

    ``properties`` are ``(name, bad_expr, valid_from)`` triples; bad
    expressions must be width-1 over the system's inputs/states (resolve
    defines first).  ``metadata`` lines are appended to the comment
    section verbatim.
    """
    system.validate()
    blaster = BitBlaster()
    aig = blaster.aig
    chain = _DelayChain(aig)

    # Allocate every signal's AIG inputs up front, in declaration order,
    # so the export is deterministic and unreferenced signals survive.
    for name, v in system.inputs.items():
        blaster.blast(v)
    state_bits: dict[str, list[int]] = {}
    for name, v in system.states.items():
        state_bits[name] = blaster.blast(v)

    next_bits: dict[str, list[int]] = {}
    for name in system.states:
        next_bits[name] = blaster.blast(
            system.resolve_defines(system.next[name]))

    # Resets: constant init -> per-bit reset values; non-constant init
    # -> uninitialized latch + a cycle-0 equality constraint.
    resets: dict[str, list[int | None]] = {}
    extra_constraints: list[int] = []
    for name, v in system.states.items():
        init = system.init.get(name)
        if init is None:
            resets[name] = [None] * v.width
            continue
        init = system.resolve_defines(init)
        if init.op == "const":
            resets[name] = [(init.value >> i) & 1 for i in range(v.width)]
            continue
        resets[name] = [None] * v.width
        init_lits = [blaster.blast_bool(E.bit(init, i))
                     for i in range(v.width)]
        eq = aig.and_many(aig.xnor_(sb, ib) for sb, ib in
                          zip(state_bits[name], init_lits))
        extra_constraints.append(aig.or_(chain.at_least(1), eq))

    constraint_lits = [blaster.blast_bool(system.resolve_defines(c))
                       for c in system.constraints]

    bad_lits: list[int] = []
    for _name, bad, valid_from in properties:
        if bad.width != 1:
            raise FormatError(
                f"property bad expression must be width 1, got "
                f"{bad.width}")
        lit = blaster.blast_bool(system.resolve_defines(bad))
        if valid_from > 0:
            lit = aig.and_(lit, chain.at_least(valid_from))
        bad_lits.append(lit)

    # Liveness payloads round-trip untouched: each justice set and
    # fairness condition is blasted like any other width-1 expression.
    justice_lits = [[blaster.blast_bool(system.resolve_defines(c))
                     for c in conds] for conds in system.justice]
    fairness_lits = [blaster.blast_bool(system.resolve_defines(c))
                     for c in system.fairness]

    # Assemble the canonical model: classify AIG input nodes into
    # design inputs, state-bit latches, and delay-chain latches.
    input_nodes: list[tuple[int, str]] = []   # (node, symbol)
    latch_nodes: list[tuple[int, str]] = []   # (node, symbol)
    for name, v in system.inputs.items():
        bits = blaster.var_bits(name) or []
        for i, lit in enumerate(bits):
            symbol = name if v.width == 1 else f"{name}[{i}]"
            input_nodes.append((node_of(lit), symbol))
    for name, v in system.states.items():
        for i, lit in enumerate(state_bits[name]):
            symbol = name if v.width == 1 else f"{name}[{i}]"
            latch_nodes.append((node_of(lit), symbol))
    for k, lit in enumerate(chain.flags):
        latch_nodes.append((node_of(lit), f"__repro_at_least_{k + 1}"))

    n_in, n_latch = len(input_nodes), len(latch_nodes)
    mapping = {0: 0}
    for pos, (node, _sym) in enumerate(input_nodes):
        mapping[node] = pos + 1
    for pos, (node, _sym) in enumerate(latch_nodes):
        mapping[node] = n_in + pos + 1
    next_var = n_in + n_latch + 1
    and_rows: list[tuple[int, int, int]] = []
    for node, fan_a, fan_b in aig.nodes_from(1):
        mapping[node] = next_var
        a = 2 * mapping[node_of(fan_a)] + (fan_a & 1)
        b = 2 * mapping[node_of(fan_b)] + (fan_b & 1)
        if a < b:
            a, b = b, a
        and_rows.append((2 * next_var, a, b))
        next_var += 1

    def relit(lit: int) -> int:
        return 2 * mapping[node_of(lit)] + (lit & 1)

    model = AigerModel(num_inputs=n_in)
    # State-bit latches, with their resets.
    flat_resets: list[int | None] = []
    flat_nexts: list[int] = []
    for name in system.states:
        flat_nexts += next_bits[name]
        flat_resets += resets[name]
    # Delay-chain latches: flags[0] next is TRUE, flags[k] next is
    # flags[k-1]; all reset to 0.
    for k, lit in enumerate(chain.flags):
        flat_nexts.append(TRUE if k == 0 else chain.flags[k - 1])
        flat_resets.append(0)
    for pos, ((node, _sym), nxt, reset) in enumerate(
            zip(latch_nodes, flat_nexts, flat_resets)):
        lit = 2 * (n_in + pos + 1)
        model.latches.append(Latch(
            lit, relit(nxt), lit if reset is None else reset))
    model.ands = and_rows
    model.bads = [relit(lit) for lit in bad_lits]
    model.constraints = [relit(lit) for lit in constraint_lits]
    model.constraints += [relit(lit) for lit in extra_constraints]
    model.justice = [[relit(lit) for lit in conds]
                     for conds in justice_lits]
    model.fairness = [relit(lit) for lit in fairness_lits]
    for pos, (_node, sym) in enumerate(input_nodes):
        model.symbols[f"i{pos}"] = sym
    for pos, (_node, sym) in enumerate(latch_nodes):
        model.symbols[f"l{pos}"] = sym
    for idx, (name, _bad, _vf) in enumerate(properties):
        model.symbols[f"b{idx}"] = name
    for idx in range(len(justice_lits)):
        model.symbols.setdefault(f"j{idx}", f"justice_{idx}")
    model.comments = list(metadata or [])
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Import: AigerModel -> TransitionSystem
# ---------------------------------------------------------------------------


def aiger_to_system(model: AigerModel, name: str
                    ) -> tuple[TransitionSystem, list[dict]]:
    """Reconstruct a bit-level transition system from an AIGER model.

    Returns ``(system, props)`` where each prop dict carries ``name``
    (the synthesized property name), ``sva`` (``!<define>``), ``expect``,
    ``max_k``, and ``kind`` (from ``repro-prop`` metadata when present,
    defaults otherwise).  Justice/fairness sections are preserved on the
    system (``system.justice``/``system.fairness``) and surfaced as
    ``kind="justice"`` props with ``expect="unknown"`` — no engine
    consumes liveness yet, so checks on them must answer UNKNOWN.
    """
    model.validate()
    system = TransitionSystem(name)
    taken: set[str] = set()

    input_vars: dict[int, E.Expr] = {}
    for i in range(model.num_inputs):
        sym = sanitize_identifier(
            model.symbols.get(f"i{i}", f"in{i}"), taken, f"in{i}")
        input_vars[i + 1] = system.add_input(sym, 1)
    latch_names: list[str] = []
    for i, latch in enumerate(model.latches):
        sym = sanitize_identifier(
            model.symbols.get(f"l{i}", f"lat{i}"), taken, f"lat{i}")
        latch_names.append(sym)
        init = None if latch.uninitialized \
            else E.const(latch.reset, 1)
        system.add_state(sym, 1, init=init)
        input_vars[model.num_inputs + 1 + i] = system.states[sym]

    # Expression per variable, ANDs in canonical (topological) order.
    exprs: dict[int, E.Expr] = {0: E.const(0, 1)}
    exprs.update(input_vars)

    def of_lit(lit: int) -> E.Expr:
        body = exprs[node_of(lit)]
        return E.not_(body) if is_negated(lit) else body

    for lhs, rhs0, rhs1 in model.ands:
        exprs[node_of(lhs)] = E.and_(of_lit(rhs0), of_lit(rhs1))

    for i, latch in enumerate(model.latches):
        system.set_next(latch_names[i], of_lit(latch.next))
    for lit in model.constraints:
        system.add_constraint(of_lit(lit))

    # Properties: explicit bad sections, else (AIGER 1.0 convention)
    # outputs double as bad-state literals.
    bad_lits = model.bads
    section = "b"
    if not bad_lits and model.outputs:
        bad_lits = model.outputs
        section = "o"
    meta = parse_prop_metadata(model.comments)
    props: list[dict] = []
    for idx, lit in enumerate(bad_lits):
        info = meta.get(idx, {})
        prop_name = info.get("name") or model.symbols.get(
            f"{section}{idx}") or f"bad_{idx}"
        define = sanitize_identifier(f"bad_{prop_name}", taken,
                                     f"bad_{idx}")
        system.add_define(define, of_lit(lit))
        props.append({
            "name": prop_name,
            "sva": f"!{define}",
            "expect": info.get("expect", "unknown"),
            "max_k": int(info.get("max_k", 5)),
            "kind": "safety",
        })
    for idx, conds in enumerate(model.justice):
        system.add_justice([of_lit(lit) for lit in conds])
        props.append({
            "name": model.symbols.get(f"j{idx}") or f"justice_{idx}",
            "sva": "",
            "expect": "unknown",
            "max_k": 5,
            "kind": "justice",
        })
    for lit in model.fairness:
        system.add_fairness(of_lit(lit))
    system.validate()
    return system, props
