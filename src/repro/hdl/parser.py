"""Recursive-descent parser for the SystemVerilog subset.

Supported module items:

* ANSI port lists with per-port direction/type/range, plus ``#(parameter
  NAME = value, ...)`` headers;
* ``parameter`` / ``localparam`` declarations;
* ``logic``/``wire``/``reg``/``bit`` declarations with packed ranges,
  optional single unpacked (array/memory) dimension, and declaration
  initializers;
* ``assign`` continuous assignments;
* ``always_ff @(posedge clk [or posedge rst])``, classic
  ``always @(posedge ...)``, ``always_comb`` and ``always @(*)``;
* module instantiation with named port connections and ``#(...)``
  parameter overrides;
* statements: ``begin/end``, ``if/else``, ``case`` (with ``default``),
  blocking/non-blocking assignments, and the ``x++``/``x--`` shorthand
  the paper's Listing 1 uses inside clocked processes.

Expressions cover the usual operator precedence including ternaries,
concatenation/replication, bit/part selects, reductions, and system calls.
Anything outside the subset raises :class:`~repro.errors.ParseError` with
the offending source location.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.hdl import ast
from repro.hdl.lexer import Token, tokenize


class TokenStream:
    """Cursor over the token list with expectation helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def at_op(self, text: str) -> bool:
        return self.at("op", text)

    def at_kw(self, text: str) -> bool:
        return self.at("keyword", text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}",
                token.line, token.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_source(source: str) -> list[ast.Module]:
    """Parse all modules in a source string."""
    ts = TokenStream(tokenize(source))
    modules = []
    while not ts.at("eof"):
        modules.append(_parse_module(ts))
    if not modules:
        raise ParseError("no modules found in source")
    return modules


def parse_module(source: str) -> ast.Module:
    """Parse a source string expected to contain exactly one module."""
    modules = parse_source(source)
    if len(modules) != 1:
        raise ParseError(f"expected exactly one module, found {len(modules)}")
    return modules[0]


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------

def _parse_module(ts: TokenStream) -> ast.Module:
    start = ts.expect("keyword", "module")
    name = ts.expect("id").text
    params: list[ast.Param] = []
    if ts.accept("op", "#"):
        ts.expect("op", "(")
        while not ts.at_op(")"):
            ts.accept("keyword", "parameter")
            ts.accept("keyword", "int")
            ts.accept("keyword", "integer")
            pname = ts.expect("id").text
            ts.expect("op", "=")
            value = parse_expr(ts)
            params.append(ast.Param(pname, value, local=False,
                                    line=start.line))
            if not ts.accept("op", ","):
                break
        ts.expect("op", ")")
    ports: list[ast.Port] = []
    if ts.accept("op", "("):
        ports = _parse_port_list(ts)
        ts.expect("op", ")")
    ts.expect("op", ";")

    module = ast.Module(name=name, ports=ports, params=params, nets=[],
                        assigns=[], always_ffs=[], always_combs=[],
                        instances=[], line=start.line)
    while not ts.at_kw("endmodule"):
        _parse_module_item(ts, module)
    ts.expect("keyword", "endmodule")
    return module


def _parse_port_list(ts: TokenStream) -> list[ast.Port]:
    ports: list[ast.Port] = []
    direction = "input"
    range_: ast.Range | None = None
    while not ts.at_op(")"):
        token = ts.peek()
        if token.kind == "keyword" and token.text in ("input", "output",
                                                      "inout"):
            direction = ts.next().text
            range_ = None
            _skip_net_type(ts)
            range_ = _try_parse_range(ts)
        elif token.kind == "keyword" and token.text in ("logic", "wire",
                                                        "reg", "bit",
                                                        "signed"):
            _skip_net_type(ts)
            range_ = _try_parse_range(ts) or range_
        name_token = ts.expect("id")
        ports.append(ast.Port(name_token.text, direction, range_,
                              line=name_token.line))
        if not ts.accept("op", ","):
            break
    return ports


def _skip_net_type(ts: TokenStream) -> None:
    while ts.peek().kind == "keyword" and ts.peek().text in (
            "logic", "wire", "reg", "bit", "signed", "unsigned"):
        ts.next()


def _try_parse_range(ts: TokenStream) -> ast.Range | None:
    if not ts.at_op("["):
        return None
    ts.expect("op", "[")
    msb = parse_expr(ts)
    ts.expect("op", ":")
    lsb = parse_expr(ts)
    ts.expect("op", "]")
    return ast.Range(msb, lsb)


def _parse_module_item(ts: TokenStream, module: ast.Module) -> None:
    token = ts.peek()
    if token.kind == "keyword":
        text = token.text
        if text in ("parameter", "localparam"):
            _parse_param_decl(ts, module)
            return
        if text in ("logic", "wire", "reg", "bit", "integer", "int"):
            _parse_net_decl(ts, module)
            return
        if text in ("input", "output", "inout"):
            # Non-ANSI port declarations re-stating direction inside body.
            ts.next()
            _skip_net_type(ts)
            range_ = _try_parse_range(ts)
            while True:
                name = ts.expect("id").text
                port = module.port(name)
                if port is not None:
                    port.range_ = range_ or port.range_
                if not ts.accept("op", ","):
                    break
            ts.expect("op", ";")
            return
        if text == "assign":
            line = ts.next().line
            target = _parse_lvalue(ts)
            ts.expect("op", "=")
            value = parse_expr(ts)
            ts.expect("op", ";")
            module.assigns.append(ast.ContinuousAssign(target, value, line))
            return
        if text in ("always_ff", "always"):
            _parse_always(ts, module)
            return
        if text == "always_comb":
            line = ts.next().line
            body = _parse_stmt(ts)
            module.always_combs.append(ast.AlwaysComb(body, line))
            return
        if text == "initial":
            raise ts.error("initial blocks are not supported; use reset "
                           "logic or declaration initializers")
        raise ts.error(f"unsupported module item {text!r}")
    if token.kind == "id":
        _parse_instance(ts, module)
        return
    raise ts.error(f"unexpected token {token.text!r} in module body")


def _parse_param_decl(ts: TokenStream, module: ast.Module) -> None:
    keyword = ts.next()
    local = keyword.text == "localparam"
    ts.accept("keyword", "int")
    ts.accept("keyword", "integer")
    _try_parse_range(ts)
    while True:
        name = ts.expect("id").text
        ts.expect("op", "=")
        value = parse_expr(ts)
        module.params.append(ast.Param(name, value, local=local,
                                       line=keyword.line))
        if not ts.accept("op", ","):
            break
    ts.expect("op", ";")


def _parse_net_decl(ts: TokenStream, module: ast.Module) -> None:
    first = ts.next()  # logic / wire / reg / bit / integer / int
    _skip_net_type(ts)
    if first.text in ("integer", "int"):
        range_: ast.Range | None = ast.Range(
            ast.Number(line=first.line, value=31), ast.Number(value=0))
    else:
        range_ = _try_parse_range(ts)
    while True:
        name_token = ts.expect("id")
        array_range = _try_parse_range(ts)
        initial = None
        if ts.accept("op", "="):
            initial = parse_expr(ts)
        # A declared name that matches a port refines the port's range.
        port = module.port(name_token.text)
        if port is not None and port.range_ is None:
            port.range_ = range_
        module.nets.append(ast.Net(name_token.text, range_, array_range,
                                   initial, line=name_token.line))
        if not ts.accept("op", ","):
            break
    ts.expect("op", ";")


def _parse_always(ts: TokenStream, module: ast.Module) -> None:
    keyword = ts.next()  # always / always_ff
    ts.expect("op", "@")
    if ts.accept("op", "("):
        if ts.accept("op", "*"):
            ts.expect("op", ")")
            body = _parse_stmt(ts)
            module.always_combs.append(ast.AlwaysComb(body, keyword.line))
            return
        sensitivity = []
        while True:
            edge_token = ts.peek()
            if edge_token.kind == "keyword" and edge_token.text in (
                    "posedge", "negedge"):
                ts.next()
                signal = ts.expect("id").text
                sensitivity.append(ast.SensItem(edge_token.text, signal))
            else:
                raise ts.error(
                    "only edge-triggered sensitivity lists are supported "
                    "in clocked processes (use always_comb for logic)")
            if not (ts.accept("keyword", "or") or ts.accept("op", ",")):
                break
        ts.expect("op", ")")
        body = _parse_stmt(ts)
        module.always_ffs.append(ast.AlwaysFF(sensitivity, body,
                                              keyword.line))
        return
    raise ts.error("malformed always block")


def _parse_instance(ts: TokenStream, module: ast.Module) -> None:
    mod_name = ts.expect("id").text
    param_overrides: dict[str, ast.HdlExpr] = {}
    if ts.accept("op", "#"):
        ts.expect("op", "(")
        while not ts.at_op(")"):
            ts.expect("op", ".")
            pname = ts.expect("id").text
            ts.expect("op", "(")
            param_overrides[pname] = parse_expr(ts)
            ts.expect("op", ")")
            if not ts.accept("op", ","):
                break
        ts.expect("op", ")")
    inst_token = ts.expect("id")
    ts.expect("op", "(")
    connections: dict[str, ast.HdlExpr] = {}
    positional: list[ast.HdlExpr] = []
    wildcard = False
    while not ts.at_op(")"):
        if ts.accept("op", "."):
            if ts.accept("op", "*"):            # .* wildcard
                wildcard = True
            else:
                port_name = ts.expect("id").text
                if port_name in connections:
                    raise ts.error(
                        f"port {port_name!r} connected twice on "
                        f"instance {inst_token.text!r}")
                if ts.accept("op", "("):        # .port(expr)
                    connections[port_name] = parse_expr(ts)
                    ts.expect("op", ")")
                else:                           # .port shorthand (.name)
                    connections[port_name] = ast.Ident(
                        name=port_name, line=inst_token.line)
        else:                                   # positional connection
            positional.append(parse_expr(ts))
        if not ts.accept("op", ","):
            break
    ts.expect("op", ")")
    ts.expect("op", ";")
    if positional and (connections or wildcard):
        raise ts.error(
            f"instance {inst_token.text!r} mixes positional and named "
            "(or .*) port connections")
    module.instances.append(ast.Instance(mod_name, inst_token.text,
                                         param_overrides, connections,
                                         line=inst_token.line,
                                         positional=positional,
                                         wildcard=wildcard))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def _parse_stmt(ts: TokenStream) -> ast.Stmt:
    token = ts.peek()
    if ts.accept("keyword", "begin"):
        label = None
        if ts.accept("op", ":"):
            label = ts.expect("id").text
        stmts = []
        while not ts.at_kw("end"):
            stmts.append(_parse_stmt(ts))
        ts.expect("keyword", "end")
        if ts.accept("op", ":"):
            ts.expect("id")
        return ast.Block(stmts=stmts, label=label, line=token.line)
    if ts.accept("keyword", "if"):
        ts.expect("op", "(")
        cond = parse_expr(ts)
        ts.expect("op", ")")
        then = _parse_stmt(ts)
        other = None
        if ts.accept("keyword", "else"):
            other = _parse_stmt(ts)
        return ast.If(cond=cond, then=then, other=other, line=token.line)
    if ts.at_kw("case") or ts.at_kw("unique") or ts.at_kw("priority"):
        ts.accept("keyword", "unique")
        ts.accept("keyword", "priority")
        ts.expect("keyword", "case")
        ts.expect("op", "(")
        subject = parse_expr(ts)
        ts.expect("op", ")")
        items: list[ast.CaseItem] = []
        while not ts.at_kw("endcase"):
            item_line = ts.peek().line
            if ts.accept("keyword", "default"):
                ts.accept("op", ":")
                body = _parse_stmt(ts)
                items.append(ast.CaseItem([], body, line=item_line))
                continue
            labels = [parse_expr(ts)]
            while ts.accept("op", ","):
                labels.append(parse_expr(ts))
            ts.expect("op", ":")
            body = _parse_stmt(ts)
            items.append(ast.CaseItem(labels, body, line=item_line))
        ts.expect("keyword", "endcase")
        return ast.Case(subject=subject, items=items, line=token.line)
    if ts.accept("op", ";"):
        return ast.NullStmt(line=token.line)
    # Assignment (blocking, non-blocking, or increment/decrement sugar).
    target = _parse_lvalue(ts)
    if ts.accept("op", "++") or ts.accept("op", "--"):
        op = ts.tokens[ts.pos - 1].text
        ts.expect("op", ";")
        one = ast.Number(value=1, width=None, line=token.line)
        rhs = ast.Binary(op="+" if op == "++" else "-", left=target,
                         right=one, line=token.line)
        return ast.Assign(target=target, value=rhs, blocking=False,
                          line=token.line)
    if ts.accept("op", "<="):
        value = parse_expr(ts)
        ts.expect("op", ";")
        return ast.Assign(target=target, value=value, blocking=False,
                          line=token.line)
    if ts.accept("op", "="):
        value = parse_expr(ts)
        ts.expect("op", ";")
        return ast.Assign(target=target, value=value, blocking=True,
                          line=token.line)
    raise ts.error("expected assignment statement")


def _parse_lvalue(ts: TokenStream) -> ast.HdlExpr:
    name_token = ts.expect("id")
    expr: ast.HdlExpr = ast.Ident(name=name_token.text,
                                  line=name_token.line)
    while ts.at_op("["):
        ts.expect("op", "[")
        first = parse_expr(ts)
        if ts.accept("op", ":"):
            second = parse_expr(ts)
            ts.expect("op", "]")
            expr = ast.Slice(base=expr, msb=first, lsb=second,
                             line=name_token.line)
        else:
            ts.expect("op", "]")
            expr = ast.Index(base=expr, index=first, line=name_token.line)
    return expr


# ---------------------------------------------------------------------------
# Expressions (precedence climbing)
# ---------------------------------------------------------------------------

_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "~^", "^~"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_UNARY_OPS = ("!", "~", "&", "|", "^", "~&", "~|", "~^", "-", "+")


def parse_expr(ts: TokenStream) -> ast.HdlExpr:
    return _parse_ternary(ts)


def _parse_ternary(ts: TokenStream) -> ast.HdlExpr:
    cond = _parse_binary(ts, 0)
    if ts.accept("op", "?"):
        then = _parse_ternary(ts)
        ts.expect("op", ":")
        other = _parse_ternary(ts)
        return ast.Ternary(cond=cond, then=then, other=other,
                           line=cond.line)
    return cond


def _parse_binary(ts: TokenStream, level: int) -> ast.HdlExpr:
    if level >= len(_BINARY_LEVELS):
        return _parse_unary(ts)
    left = _parse_binary(ts, level + 1)
    ops = _BINARY_LEVELS[level]
    while ts.peek().kind == "op" and ts.peek().text in ops:
        op = ts.next().text
        right = _parse_binary(ts, level + 1)
        left = ast.Binary(op=op, left=left, right=right, line=left.line)
    return left


def _parse_unary(ts: TokenStream) -> ast.HdlExpr:
    token = ts.peek()
    if token.kind == "op" and token.text in _UNARY_OPS:
        ts.next()
        operand = _parse_unary(ts)
        return ast.Unary(op=token.text, operand=operand, line=token.line)
    return _parse_postfix(ts)


def _parse_postfix(ts: TokenStream) -> ast.HdlExpr:
    expr = _parse_primary(ts)
    while ts.at_op("["):
        ts.expect("op", "[")
        first = parse_expr(ts)
        if ts.accept("op", ":"):
            second = parse_expr(ts)
            ts.expect("op", "]")
            expr = ast.Slice(base=expr, msb=first, lsb=second,
                             line=expr.line)
        else:
            ts.expect("op", "]")
            expr = ast.Index(base=expr, index=first, line=expr.line)
    return expr


def _parse_primary(ts: TokenStream) -> ast.HdlExpr:
    token = ts.peek()
    if token.kind == "number":
        ts.next()
        return ast.Number(value=token.value, width=token.width,
                          line=token.line)
    if token.kind == "id":
        ts.next()
        if token.text.startswith("$"):
            args = []
            if ts.accept("op", "("):
                while not ts.at_op(")"):
                    args.append(parse_expr(ts))
                    if not ts.accept("op", ","):
                        break
                ts.expect("op", ")")
            return ast.Call(func=token.text, args=args, line=token.line)
        name = token.text
        # Hierarchical references (flattened instances use dotted names).
        while ts.at_op(".") and ts.peek(1).kind == "id":
            ts.next()
            name += "." + ts.expect("id").text
        return ast.Ident(name=name, line=token.line)
    if ts.accept("op", "("):
        inner = parse_expr(ts)
        ts.expect("op", ")")
        return inner
    if ts.accept("op", "{"):
        first = parse_expr(ts)
        if ts.at_op("{"):
            # Replication {N{expr}}.
            ts.expect("op", "{")
            operand = parse_expr(ts)
            ts.expect("op", "}")
            ts.expect("op", "}")
            return ast.Repl(count=first, operand=operand, line=token.line)
        parts = [first]
        while ts.accept("op", ","):
            parts.append(parse_expr(ts))
        ts.expect("op", "}")
        return ast.Concat(parts=parts, line=token.line)
    raise ts.error(f"unexpected token {token.text!r} in expression")
