"""Elaboration: SystemVerilog-subset AST -> transition system.

The elaborator performs, in order:

1. **parameter resolution** — constant folding of ``parameter`` /
   ``localparam`` values with instantiation overrides;
2. **signal table construction** — widths from packed ranges, unpacked
   array (memory) dimensions, driver discovery (port input, continuous
   assign, ``always_comb``, ``always_ff``, instance output) with
   multiple-driver detection;
3. **hierarchy flattening** — child modules are elaborated recursively and
   inlined with dotted prefixes (``u_sub.state``);
4. **process lowering** — symbolic execution of statement blocks turns
   ``if``/``case``/assignment trees into ``ite`` expression trees;
   blocking assignments update the in-block environment, non-blocking
   assignments collect into the register's next-state function;
5. **reset extraction** — the reset input (from sensitivity lists or an
   explicit hint) is partially evaluated to recover each register's reset
   value as its formal initial state; the proof environment then pins
   reset inactive (standard formal-verification setup);
6. **memory lowering** — unpacked arrays become one wide register with
   mux-tree reads and mask/merge writes, so the whole system stays in the
   pure bit-vector IR.

Modeling notes (documented substitutions from full SystemVerilog):
two-state semantics (``x``/``z`` read as 0), a single global clock (the
first edge in every clocked sensitivity list), asynchronous resets
modeled synchronously (equivalent under the reset-inactive proof
environment), and unsupported constructs rejected loudly rather than
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ElaborationError
from repro.hdl import ast
from repro.hdl.lower import Lowerer, Unsized, const_eval, resize
from repro.hdl.parser import parse_source
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.utils.bits import mask

@dataclass
class _SignalInfo:
    """Everything the elaborator knows about one named signal."""

    name: str
    width: int
    direction: str | None = None       # input/output/None (internal)
    is_array: bool = False
    elem_width: int = 0
    n_elems: int = 0
    driver: str | None = None          # "input"|"assign"|"comb"|"ff"|"inst"
    driver_ref: object | None = None   # AST node or instance tuple
    initial: ast.HdlExpr | None = None


def elaborate(source: str | ast.Module | list[ast.Module],
              top: str | None = None,
              params: dict[str, int] | None = None,
              reset: str | None = None,
              constrain_reset: bool = True,
              name: str | None = None) -> TransitionSystem:
    """Elaborate RTL source into a :class:`TransitionSystem`.

    Parameters
    ----------
    source:
        RTL text, a parsed module, or a list of modules (for hierarchies).
    top:
        Top module name (defaults to the last module in the source, which
        matches the common file layout of leaf-modules-first).
    params:
        Parameter overrides for the top module.
    reset:
        Reset input hint: ``"rst"`` (active high) or ``"!rst_n"`` (active
        low).  Usually unnecessary — resets named in edge-sensitivity
        lists are found automatically; common names (rst, reset, rst_n,
        resetn, rst_ni) are recognized for synchronous resets.
    constrain_reset:
        Add the ``reset inactive`` environment constraint (standard formal
        setup: start from the reset state, never re-assert).
    name:
        Name for the resulting system (defaults to the top module name).
    """
    if isinstance(source, str):
        modules = parse_source(source)
    elif isinstance(source, ast.Module):
        modules = [source]
    else:
        modules = list(source)
    by_name = {m.name: m for m in modules}
    for module in modules:
        _normalize_instances(module, by_name)
    if top is None:
        top_module = modules[-1]
    else:
        if top not in by_name:
            raise ElaborationError(f"top module {top!r} not found")
        top_module = by_name[top]
    elab = _ModuleElaborator(top_module, by_name, params or {},
                             reset_hint=reset)
    system = elab.build(name or top_module.name,
                        constrain_reset=constrain_reset)
    system.validate()
    return system


# ---------------------------------------------------------------------------


def _normalize_instances(module: ast.Module,
                         by_name: dict[str, ast.Module]) -> None:
    """Rewrite positional and ``.*`` instance connections as named ones.

    Positional connections need the child's declared port order and
    ``.*`` needs its port list, so this runs once up front (when every
    module is known) and the rest of elaboration only ever sees
    ``inst.connections``.
    """
    for inst in module.instances:
        child = by_name.get(inst.module)
        if child is None:
            raise ElaborationError(
                f"instance {inst.name!r} refers to unknown module "
                f"{inst.module!r}", inst.line)
        if inst.positional:
            if len(inst.positional) > len(child.ports):
                raise ElaborationError(
                    f"instance {inst.name!r} has "
                    f"{len(inst.positional)} positional connections "
                    f"but module {child.name!r} declares only "
                    f"{len(child.ports)} ports", inst.line)
            for port, expr in zip(child.ports, inst.positional):
                inst.connections[port.name] = expr
            inst.positional = []
        if inst.wildcard:
            parent_signals = {p.name for p in module.ports}
            parent_signals.update(n.name for n in module.nets)
            for port in child.ports:
                if port.name in inst.connections:
                    continue
                if port.name not in parent_signals:
                    raise ElaborationError(
                        f"instance {inst.name!r}: .* cannot connect "
                        f"port {port.name!r} — no signal of that name "
                        f"in module {module.name!r}", inst.line)
                inst.connections[port.name] = ast.Ident(
                    name=port.name, line=inst.line)
            inst.wildcard = False


class _ModuleElaborator:
    """Elaborates one module (recursively flattening instances)."""

    def __init__(self, module: ast.Module,
                 library: dict[str, ast.Module],
                 overrides: dict[str, int],
                 reset_hint: str | None = None):
        self.module = module
        self.library = library
        self.reset_hint = reset_hint
        self.params = self._eval_params(overrides)
        self.signals: dict[str, _SignalInfo] = {}
        self.clock: str | None = None
        self.resets: dict[str, int] = {}   # reset input -> active value
        self._lower_memo: dict[str, E.Expr] = {}
        self._lowering: set[str] = set()
        self._comb_results: dict[int, dict[str, E.Expr]] = {}
        self._child_systems: dict[str, TransitionSystem] = {}
        self._child_outputs: dict[str, tuple[str, str]] = {}
        self._collect_signals()
        self._lowerer = Lowerer(
            signal=self._lower_signal, error=ElaborationError,
            arrays={info.name: (info.elem_width, info.n_elems)
                    for info in self.signals.values() if info.is_array},
            params=self.params)
        self._find_clock_and_resets()
        self._assign_drivers()

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    def _eval_params(self, overrides: dict[str, int]) -> dict[str, int]:
        env: dict[str, int] = {}
        for p in self.module.params:
            if not p.local and p.name in overrides:
                env[p.name] = overrides[p.name]
            else:
                env[p.name] = self._const_eval(p.value, env)
        unknown = set(overrides) - {p.name for p in self.module.params}
        if unknown:
            raise ElaborationError(
                f"unknown parameter overrides {sorted(unknown)} "
                f"for module {self.module.name}")
        return env

    def _const_eval(self, e: ast.HdlExpr,
                    env: dict[str, int] | None = None) -> int:
        return const_eval(e, self.params if env is None else env,
                          ElaborationError)

    # ------------------------------------------------------------------
    # Signal table
    # ------------------------------------------------------------------

    def _range_width(self, r: ast.Range | None, line: int) -> int:
        if r is None:
            return 1
        msb = self._const_eval(r.msb)
        lsb = self._const_eval(r.lsb)
        if lsb != 0 and msb != 0:
            raise ElaborationError(
                "packed ranges must be [W-1:0] form", line)
        return abs(msb - lsb) + 1

    def _collect_signals(self) -> None:
        for port in self.module.ports:
            width = self._range_width(port.range_, port.line)
            self.signals[port.name] = _SignalInfo(
                port.name, width, direction=port.direction)
        for net in self.module.nets:
            width = self._range_width(net.range_, net.line)
            if net.name in self.signals:
                info = self.signals[net.name]
                info.width = width
                if net.initial is not None:
                    info.initial = net.initial
                continue
            info = _SignalInfo(net.name, width, initial=net.initial)
            if net.array_range is not None:
                hi = self._const_eval(net.array_range.msb)
                lo = self._const_eval(net.array_range.lsb)
                n = abs(hi - lo) + 1
                info.is_array = True
                info.elem_width = width
                info.n_elems = n
                info.width = width * n
            self.signals[net.name] = info

    def _info(self, name: str, line: int = 0) -> _SignalInfo:
        info = self.signals.get(name)
        if info is None:
            raise ElaborationError(f"undeclared signal {name!r}", line)
        return info

    # ------------------------------------------------------------------
    # Clock / reset discovery
    # ------------------------------------------------------------------

    def _find_clock_and_resets(self) -> None:
        for ff in self.module.always_ffs:
            if not ff.sensitivity:
                raise ElaborationError("clocked process without sensitivity",
                                       ff.line)
            clock = ff.sensitivity[0].signal
            if self.clock is None:
                self.clock = clock
            elif self.clock != clock:
                raise ElaborationError(
                    f"multiple clocks ({self.clock!r} vs {clock!r}) are "
                    "not supported", ff.line)
            for item in ff.sensitivity[1:]:
                active = 1 if item.edge == "posedge" else 0
                self.resets[item.signal] = active
        if self.clock is None:
            self.clock = self._instance_clock()
        if self.reset_hint:
            hint = self.reset_hint
            if hint.startswith("!"):
                self.resets.setdefault(hint[1:], 0)
            else:
                self.resets.setdefault(hint, 1)
        elif not self.resets:
            # Synchronous reset by conventional name.
            for candidate, active in (("rst", 1), ("reset", 1), ("rst_n", 0),
                                      ("resetn", 0), ("rst_ni", 0)):
                info = self.signals.get(candidate)
                if info is not None and info.direction == "input":
                    self.resets[candidate] = active
                    break

    def _instance_clock(self) -> str | None:
        """Clock propagated from instantiated children.

        A module with no clocked process of its own still has a clock if a
        child does; the parent signal wired to the child's clock port is
        then treated as this module's clock.
        """
        for inst in self.module.instances:
            child = self.library.get(inst.module)
            if child is None:
                continue
            child_clock = _ast_clock(child, self.library, set())
            if child_clock is not None:
                conn = inst.connections.get(child_clock)
                if isinstance(conn, ast.Ident):
                    return conn.name
        return None

    # ------------------------------------------------------------------
    # Driver discovery
    # ------------------------------------------------------------------

    @staticmethod
    def _target_name(target: ast.HdlExpr) -> str:
        while isinstance(target, (ast.Index, ast.Slice)):
            target = target.base
        if not isinstance(target, ast.Ident):
            raise ElaborationError("unsupported assignment target",
                                   target.line)
        return target.name

    def _targets_of(self, stmt: ast.Stmt) -> set[str]:
        if isinstance(stmt, ast.Block):
            out: set[str] = set()
            for s in stmt.stmts:
                out |= self._targets_of(s)
            return out
        if isinstance(stmt, ast.If):
            out = self._targets_of(stmt.then)
            if stmt.other is not None:
                out |= self._targets_of(stmt.other)
            return out
        if isinstance(stmt, ast.Case):
            out = set()
            for item in stmt.items:
                out |= self._targets_of(item.body)
            return out
        if isinstance(stmt, ast.Assign):
            return {self._target_name(stmt.target)}
        return set()

    def _set_driver(self, name: str, kind: str, ref: object,
                    line: int) -> None:
        info = self._info(name, line)
        if info.direction == "input":
            raise ElaborationError(f"input port {name!r} cannot be driven",
                                   line)
        if info.driver is not None and \
                (info.driver != kind or info.driver_ref is not ref):
            raise ElaborationError(
                f"signal {name!r} has multiple drivers", line)
        info.driver = kind
        info.driver_ref = ref

    def _assign_drivers(self) -> None:
        for a in self.module.assigns:
            self._set_driver(self._target_name(a.target), "assign", a,
                             a.line)
        for comb in self.module.always_combs:
            for name in self._targets_of(comb.body):
                self._set_driver(name, "comb", comb, comb.line)
        for ff in self.module.always_ffs:
            for name in self._targets_of(ff.body):
                self._set_driver(name, "ff", ff, ff.line)
        for inst in self.module.instances:
            child = self.library.get(inst.module)
            if child is None:
                raise ElaborationError(
                    f"unknown module {inst.module!r}", inst.line)
            for port_name, conn in inst.connections.items():
                port = child.port(port_name)
                if port is None:
                    raise ElaborationError(
                        f"module {child.name!r} has no port {port_name!r}",
                        inst.line)
                if port.direction == "output":
                    if not isinstance(conn, ast.Ident):
                        raise ElaborationError(
                            "output ports must connect to plain signals",
                            inst.line)
                    self._set_driver(conn.name, "inst",
                                     (inst.name, port_name), inst.line)
                    self._child_outputs[conn.name] = (inst.name, port_name)
        for info in self.signals.values():
            if info.direction == "input":
                info.driver = "input"
        # `wire x = expr;` — a declaration initializer on a signal no
        # process drives is a continuous assignment (Verilog semantics).
        for info in self.signals.values():
            if info.driver is None and info.initial is not None:
                info.driver = "decl"
                info.driver_ref = info.initial

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(self, system_name: str,
              constrain_reset: bool = True) -> TransitionSystem:
        system = TransitionSystem(system_name)
        system.arrays = dict(self._lowerer.arrays)
        self.system = system

        # Inputs: all input ports except the clock.
        for info in self.signals.values():
            if info.direction == "input" and info.name != self.clock:
                system.add_input(info.name, info.width)

        # Registers: targets of clocked processes (declared widths).
        for info in self.signals.values():
            if info.driver == "ff":
                system.add_state(info.name, info.width)

        # Child instances: elaborate and inline before lowering, because
        # parent expressions may read child outputs.
        for inst in self.module.instances:
            self._inline_instance(inst)

        # Next-state functions and resets.
        for ff in self.module.always_ffs:
            self._lower_ff(ff)

        # Undriven non-inputs become free cut points (inputs) first, so
        # defines that read them resolve.
        for info in self.signals.values():
            if info.driver is None:
                system.add_input(info.name, info.width)
        # Defines: every non-register internal signal and output port.
        for info in self.signals.values():
            if info.driver in ("assign", "comb", "inst", "decl"):
                system.add_define(info.name, self._lower_signal(info.name))

        # Reset environment.
        for rst_name, active in self.resets.items():
            info = self.signals.get(rst_name)
            if info is None or info.direction != "input":
                continue
            if constrain_reset:
                system.add_constraint(
                    E.eq(E.var(rst_name, info.width),
                         E.const(0 if active else 1, info.width)))
        return system

    # ------------------------------------------------------------------
    # Instance inlining
    # ------------------------------------------------------------------

    def _inline_instance(self, inst: ast.Instance) -> None:
        child_ast = self.library[inst.module]
        overrides = {name: self._const_eval(value)
                     for name, value in inst.param_overrides.items()}
        child = _ModuleElaborator(child_ast, self.library, overrides)
        child_sys = child.build(f"{self.module.name}.{inst.name}",
                                constrain_reset=False)
        prefix = f"{inst.name}."

        # Bindings for the child's inputs (parent-level expressions).
        bindings: dict[str, E.Expr] = {}
        for port in child_ast.ports:
            if port.direction != "input":
                continue
            if port.name == child.clock:
                continue
            conn = inst.connections.get(port.name)
            child_width = child_sys.width_of(port.name) \
                if child_sys.has_signal(port.name) else 1
            if conn is None:
                raise ElaborationError(
                    f"input port {port.name!r} of {inst.name!r} unconnected",
                    inst.line)
            bindings[port.name] = resize(
                self._lowerer.lower(conn), child_width)

        subst: dict[str, E.Expr] = dict(bindings)
        for state_name, v in child_sys.states.items():
            subst[state_name] = E.var(prefix + state_name, v.width)

        for state_name, v in child_sys.states.items():
            new_name = prefix + state_name
            self.system.add_state(new_name, v.width)
            if state_name in child_sys.arrays:
                self.system.arrays[new_name] = child_sys.arrays[state_name]
            if state_name in child_sys.init:
                self.system.set_init(
                    new_name, E.substitute(child_sys.init[state_name],
                                           subst))
            self.system.set_next(
                new_name, E.substitute(child_sys.next[state_name], subst))
        for cond in child_sys.constraints:
            self.system.add_constraint(E.substitute(cond, subst))
        # Child-internal inputs (cut points) become parent inputs.
        for in_name, v in child_sys.inputs.items():
            if in_name not in bindings:
                self.system.add_input(prefix + in_name, v.width)
                subst[in_name] = E.var(prefix + in_name, v.width)

        self._child_systems[inst.name] = child_sys
        # Pre-resolve output expressions for parent-side reads.
        for conn_name, (inst_name, port_name) in \
                list(self._child_outputs.items()):
            if inst_name != inst.name:
                continue
            resolved = child_sys.resolve_defines(
                child_sys.lookup(port_name))
            self._lower_memo[conn_name] = resize(
                E.substitute(resolved, subst),
                self._info(conn_name).width)

    # ------------------------------------------------------------------
    # Clocked process lowering
    # ------------------------------------------------------------------

    def _lower_ff(self, ff: ast.AlwaysFF) -> None:
        targets = sorted(self._targets_of(ff.body))
        base_env = {name: E.var(name, self._info(name).width)
                    for name in targets}
        env, nb = self._exec_stmt(ff.body, dict(base_env), {}, base_env)
        for name in targets:
            info = self._info(name)
            next_expr = nb.get(name, env.get(name, base_env[name]))
            self.system.set_next(name, next_expr)
            init = self._extract_init(name, next_expr, info)
            if init is not None:
                self.system.set_init(name, init)

    def _extract_init(self, name: str, next_expr: E.Expr,
                      info: _SignalInfo) -> E.Expr | None:
        """Recover the register's reset value as its formal initial state.

        Partial-evaluates the next-state function with every reset input
        pinned active; if the result is a constant the register has a
        well-defined reset value.  Declaration initializers serve as a
        fallback (FPGA-style initialization).
        """
        substitution = {}
        for rst_name, active in self.resets.items():
            rst_info = self.signals.get(rst_name)
            if rst_info is not None and rst_info.direction == "input":
                substitution[rst_name] = E.const(
                    1 if active else 0, rst_info.width)
        if substitution:
            folded = E.substitute(next_expr, substitution)
            if folded.is_const:
                return folded
        if info.initial is not None:
            value = self._const_eval(info.initial)
            return E.const(value, info.width)
        return None

    # ------------------------------------------------------------------
    # Statement symbolic execution
    # ------------------------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt, env: dict[str, E.Expr],
                   nb: dict[str, E.Expr],
                   base_env: dict[str, E.Expr]
                   ) -> tuple[dict[str, E.Expr], dict[str, E.Expr]]:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                env, nb = self._exec_stmt(s, env, nb, base_env)
            return env, nb
        if isinstance(stmt, ast.NullStmt):
            return env, nb
        if isinstance(stmt, ast.Assign):
            value = self._lowerer.lower(stmt.value, env)
            name = self._target_name(stmt.target)
            info = self._info(name, stmt.line)
            # Read-modify-write base for partial updates: blocking sees the
            # in-block value; non-blocking merges with already-scheduled
            # non-blocking updates (two writes to different array slots in
            # one cycle must both land).
            if stmt.blocking:
                current = env.get(name, base_env.get(name))
            else:
                current = nb.get(name, env.get(name, base_env.get(name)))
            if current is None:
                current = E.var(name, info.width)
            whole = self._write_target(stmt.target, value, current, info,
                                       env)
            if stmt.blocking:
                env = dict(env)
                env[name] = whole
            else:
                nb = dict(nb)
                nb[name] = whole
            return env, nb
        if isinstance(stmt, ast.If):
            cond = self._lowerer.cond(stmt.cond, env)
            env_t, nb_t = self._exec_stmt(stmt.then, dict(env), dict(nb),
                                          base_env)
            if stmt.other is not None:
                env_f, nb_f = self._exec_stmt(stmt.other, dict(env),
                                              dict(nb), base_env)
            else:
                env_f, nb_f = env, nb
            return (self._merge(cond, env_t, env_f, env, base_env, stmt),
                    self._merge(cond, nb_t, nb_f, nb, base_env, stmt,
                                nonblocking=True))
        if isinstance(stmt, ast.Case):
            return self._exec_case(stmt, env, nb, base_env)
        raise ElaborationError(
            f"unsupported statement {type(stmt).__name__}", stmt.line)

    def _exec_case(self, stmt: ast.Case, env, nb, base_env):
        self._lowerer.lower(stmt.subject, env)  # checked even if unlabelled
        default_body: ast.Stmt = ast.NullStmt(line=stmt.line)
        labeled = []
        for item in stmt.items:
            if not item.labels:
                default_body = item.body
            else:
                labeled.append(item)
        chain = default_body
        for item in reversed(labeled):
            conds = item.labels
            cond_expr: ast.HdlExpr | None = None
            for label in conds:
                this = ast.Binary(op="==", left=stmt.subject, right=label,
                                  line=item.line)
                cond_expr = this if cond_expr is None else ast.Binary(
                    op="||", left=cond_expr, right=this, line=item.line)
            chain = ast.If(cond=cond_expr, then=item.body, other=chain,
                           line=item.line)
        return self._exec_stmt(chain, env, nb, base_env)

    def _merge(self, cond: E.Expr, true_map, false_map, pre_map,
               base_env, stmt, nonblocking: bool = False):
        merged = dict(pre_map)
        for key in set(true_map) | set(false_map):
            in_true = key in true_map
            in_false = key in false_map
            if in_true and in_false:
                t_val, f_val = true_map[key], false_map[key]
            else:
                # One branch did not assign: registers keep their value,
                # pure combinational targets would latch -> error there.
                default = pre_map.get(key, base_env.get(key))
                if default is None:
                    raise ElaborationError(
                        f"signal {key!r} is not assigned on all paths "
                        "(would infer a latch)", stmt.line)
                t_val = true_map.get(key, default)
                f_val = false_map.get(key, default)
            merged[key] = t_val if t_val is f_val else E.ite(cond, t_val,
                                                             f_val)
        return merged

    # ------------------------------------------------------------------
    # Write targets (bit/slice/array element updates)
    # ------------------------------------------------------------------

    def _write_target(self, target: ast.HdlExpr, value, current: E.Expr,
                      info: _SignalInfo,
                      env: dict[str, E.Expr]) -> E.Expr:
        if isinstance(target, ast.Ident):
            return resize(value, info.width)
        if isinstance(target, ast.Slice):
            msb = self._const_eval(target.msb)
            lsb = self._const_eval(target.lsb)
            width = msb - lsb + 1
            return self._splice(current, lsb, width,
                                resize(value, width))
        if isinstance(target, ast.Index):
            if info.is_array:
                index = self._lowerer.lower(target.index, env)
                return self._array_write(
                    current, index, resize(value, info.elem_width),
                    info)
            try:
                bit_index = self._const_eval(target.index)
            except ElaborationError:
                raise ElaborationError(
                    "dynamic bit-select on assignment targets is not "
                    "supported (use an array)", target.line)
            return self._splice(current, bit_index, 1,
                                resize(value, 1))
        raise ElaborationError("unsupported assignment target", target.line)

    @staticmethod
    def _splice(whole: E.Expr, lsb: int, width: int,
                value: E.Expr) -> E.Expr:
        """Replace bits [lsb+width-1 : lsb] of ``whole`` with ``value``."""
        parts = []
        if lsb + width < whole.width:
            parts.append(E.extract(whole, whole.width - 1, lsb + width))
        parts.append(value)
        if lsb > 0:
            parts.append(E.extract(whole, lsb - 1, 0))
        result = parts[0]
        for p in parts[1:]:
            result = E.concat(result, p)
        return result

    def _array_write(self, whole: E.Expr, index, value: E.Expr,
                     info: _SignalInfo) -> E.Expr:
        if isinstance(index, Unsized):
            lsb = index.value * info.elem_width
            if lsb + info.elem_width > info.width:
                raise ElaborationError(
                    f"array index {index.value} out of range for "
                    f"{info.name!r}")
            return self._splice(whole, lsb, info.elem_width, value)
        # Dynamic index: whole = (whole & ~(mask << i*ew)) | (value << ...)
        total = info.width
        shift_amount = E.mul(E.zext(index, total),
                             E.const(info.elem_width, total))
        elem_mask = E.shl(E.const(mask(info.elem_width), total),
                          shift_amount)
        cleared = E.and_(whole, E.not_(elem_mask))
        placed = E.shl(E.zext(value, total), shift_amount)
        return E.or_(cleared, placed)

    # ------------------------------------------------------------------
    # Signal lowering (wires, comb outputs, instance outputs)
    # ------------------------------------------------------------------

    def _lower_signal(self, name: str, line: int = 0) -> E.Expr:
        """A name read as data (the lowerer's ``signal`` door)."""
        if name == self.clock:
            raise ElaborationError(
                f"the clock {name!r} cannot be read as data", line)
        if name in self._lower_memo:
            return self._lower_memo[name]
        info = self._info(name, line)
        if name in self._lowering:
            raise ElaborationError(
                f"combinational loop through {name!r}", line)
        self._lowering.add(name)
        try:
            expr = self._lower_signal_uncached(info, line)
        finally:
            self._lowering.discard(name)
        self._lower_memo[name] = expr
        return expr

    def _lower_signal_uncached(self, info: _SignalInfo,
                               line: int) -> E.Expr:
        name = info.name
        if info.driver == "input" or info.driver == "ff":
            return E.var(name, info.width)
        if info.driver == "decl":
            return resize(self._lowerer.lower(info.driver_ref),
                          info.width)
        if info.driver == "assign":
            a: ast.ContinuousAssign = info.driver_ref
            value = resize(self._lowerer.lower(a.value), info.width)
            if isinstance(a.target, ast.Ident):
                return value
            raise ElaborationError(
                "continuous assignment to slices is not supported; assign "
                "the whole signal", a.line)
        if info.driver == "comb":
            comb: ast.AlwaysComb = info.driver_ref
            results = self._comb_results.get(id(comb))
            if results is None:
                env, _nb = self._exec_stmt(comb.body, {}, {}, {})
                missing = self._targets_of(comb.body) - set(env)
                if missing:
                    raise ElaborationError(
                        f"always_comb leaves {sorted(missing)} unassigned "
                        "on some path", comb.line)
                results = {k: resize(v, self._info(k).width)
                           for k, v in env.items()}
                self._comb_results[id(comb)] = results
            return results[name]
        if info.driver == "inst":
            # Pre-resolved by _inline_instance.
            raise ElaborationError(
                f"instance output {name!r} read before instance "
                "elaboration", line)
        if info.driver is None:
            # Free cut point, registered as an input by build().
            return E.var(name, info.width)
        raise ElaborationError(f"cannot lower signal {name!r}", line)


def _ast_clock(module: ast.Module, library: dict[str, ast.Module],
               seen: set[str]) -> str | None:
    """Syntactic clock discovery: first edge signal of any clocked process,
    searched recursively through the instance hierarchy."""
    if module.name in seen:
        return None
    seen.add(module.name)
    for ff in module.always_ffs:
        if ff.sensitivity:
            return ff.sensitivity[0].signal
    for inst in module.instances:
        child = library.get(inst.module)
        if child is None:
            continue
        child_clock = _ast_clock(child, library, seen)
        if child_clock is not None:
            conn = inst.connections.get(child_clock)
            if isinstance(conn, ast.Ident):
                return conn.name
    return None
