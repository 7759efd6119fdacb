"""AIGER 1.9 reader and writer (ascii ``.aag`` and binary ``.aig``).

The in-memory :class:`AigerModel` is *canonical*: inputs are variables
``1..I``, latches ``I+1..I+L``, and AND gates ``I+L+1..M`` in
topological order with ``lhs > rhs0 >= rhs1`` — exactly the shape the
binary format mandates.  The ascii reader accepts arbitrary variable
numbering (the format permits it) and renumbers on the way in, so one
model always serializes to one byte sequence in either format; reading
an ``.aig`` and writing ``.aag`` therefore reproduces its ascii twin
byte-for-byte.

Covered 1.9 surface: latch reset values (0 / 1 / uninitialized), the
output, bad-state, invariant-constraint, justice, and fairness
sections, the symbol table, and the comment section.  Comments are
preserved round-trip — the IR bridge uses them to carry property
metadata (see :mod:`repro.formats.bridge`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import FormatError


def _negated(lit: int) -> bool:
    return bool(lit & 1)


def _var(lit: int) -> int:
    return lit >> 1


@dataclass
class Latch:
    """One latch: its (positive) literal, next-state literal, and reset.

    ``reset`` is 0, 1, or the latch's own literal (= uninitialized, as
    AIGER 1.9 writes it).
    """

    lit: int
    next: int
    reset: int = 0

    @property
    def uninitialized(self) -> bool:
        return self.reset == self.lit


@dataclass
class AigerModel:
    """A canonical AIGER netlist (see module docstring)."""

    num_inputs: int = 0
    latches: list[Latch] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    bads: list[int] = field(default_factory=list)
    constraints: list[int] = field(default_factory=list)
    justice: list[list[int]] = field(default_factory=list)
    fairness: list[int] = field(default_factory=list)
    # (lhs, rhs0, rhs1) with lhs > rhs0 >= rhs1, lhs ascending.
    ands: list[tuple[int, int, int]] = field(default_factory=list)
    # "i0" / "l2" / "o0" / "b1" / "c0" / "j0" / "f0"  ->  name
    symbols: dict[str, str] = field(default_factory=dict)
    comments: list[str] = field(default_factory=list)

    @property
    def max_var(self) -> int:
        return self.num_inputs + len(self.latches) + len(self.ands)

    def input_lit(self, index: int) -> int:
        return 2 * (index + 1)

    def validate(self) -> None:
        """Check canonical shape; raises :class:`FormatError`."""
        m = self.max_var
        base = self.num_inputs + len(self.latches)
        for i, latch in enumerate(self.latches):
            want = 2 * (self.num_inputs + 1 + i)
            if latch.lit != want:
                raise FormatError(
                    f"latch {i} literal {latch.lit} not canonical "
                    f"(expected {want})")
            if latch.reset not in (0, 1, latch.lit):
                raise FormatError(
                    f"latch {i} reset {latch.reset} must be 0, 1, or "
                    f"the latch literal {latch.lit}")
            self._check_lit(latch.next, m, f"latch {i} next")
        for i, (lhs, rhs0, rhs1) in enumerate(self.ands):
            want = 2 * (base + 1 + i)
            if lhs != want:
                raise FormatError(
                    f"AND {i} lhs {lhs} not canonical (expected {want})")
            if not (lhs > rhs0 >= rhs1):
                raise FormatError(
                    f"AND {i} violates lhs > rhs0 >= rhs1: "
                    f"({lhs}, {rhs0}, {rhs1})")
            self._check_lit(rhs0, m, f"AND {i} rhs0")
            self._check_lit(rhs1, m, f"AND {i} rhs1")
        for section, lits in (("output", self.outputs),
                              ("bad", self.bads),
                              ("constraint", self.constraints),
                              ("fairness", self.fairness)):
            for lit in lits:
                self._check_lit(lit, m, section)
        for lits in self.justice:
            for lit in lits:
                self._check_lit(lit, m, "justice")

    @staticmethod
    def _check_lit(lit: int, max_var: int, what: str) -> None:
        if lit < 0 or _var(lit) > max_var:
            raise FormatError(f"{what} literal {lit} out of range "
                              f"(max var {max_var})")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def read_aiger(data: bytes | str) -> AigerModel:
    """Parse AIGER text/bytes, auto-detecting ascii vs binary."""
    if isinstance(data, str):
        data = data.encode("latin-1")
    if data.startswith(b"aag "):
        return _read_ascii(data)
    if data.startswith(b"aig "):
        return _read_binary(data)
    raise FormatError("not an AIGER file (no 'aag'/'aig' header)")


def read_aiger_file(path: str | Path) -> AigerModel:
    path = Path(path)
    try:
        return read_aiger(path.read_bytes())
    except OSError as exc:
        raise FormatError(f"cannot read AIGER file {path}: {exc}")


def _parse_header(line: bytes, magic: str) -> list[int]:
    parts = line.split()
    if len(parts) < 6 or parts[0] != magic.encode():
        raise FormatError(f"malformed AIGER header {line!r}")
    if len(parts) > 10:
        raise FormatError(f"AIGER header has too many fields: {line!r}")
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"non-numeric AIGER header field in {line!r}")
    if any(n < 0 for n in nums):
        raise FormatError(f"negative AIGER header field in {line!r}")
    return nums + [0] * (9 - len(nums))  # M I L O A B C J F


def _int_fields(line: bytes, n_min: int, n_max: int, what: str) -> list[int]:
    parts = line.split()
    if not (n_min <= len(parts) <= n_max):
        raise FormatError(f"malformed {what} line {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"non-numeric {what} line {line!r}")


class _Lines:
    """Sequential line reader with error context."""

    def __init__(self, lines: list[bytes]):
        self._lines = lines
        self._pos = 0

    def next(self, what: str) -> bytes:
        if self._pos >= len(self._lines):
            raise FormatError(f"truncated AIGER file: missing {what}")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def rest(self) -> list[bytes]:
        return self._lines[self._pos:]


def _read_sections(lines: _Lines, counts: list[int],
                   model: AigerModel) -> None:
    """Outputs, bads, constraints, justice, fairness (shared by both
    readers); fills ``model`` in place."""
    _m, _i, _l, o, _a, b, c, j, f = counts
    model.outputs = [_int_fields(lines.next("output"), 1, 1, "output")[0]
                     for _ in range(o)]
    model.bads = [_int_fields(lines.next("bad"), 1, 1, "bad")[0]
                  for _ in range(b)]
    model.constraints = [
        _int_fields(lines.next("constraint"), 1, 1, "constraint")[0]
        for _ in range(c)]
    justice_sizes = [
        _int_fields(lines.next("justice size"), 1, 1, "justice size")[0]
        for _ in range(j)]
    model.justice = [
        [_int_fields(lines.next("justice"), 1, 1, "justice")[0]
         for _ in range(size)]
        for size in justice_sizes]
    model.fairness = [
        _int_fields(lines.next("fairness"), 1, 1, "fairness")[0]
        for _ in range(f)]


def _read_trailer(raw: list[bytes], model: AigerModel) -> None:
    """Symbol table and comment section."""
    raw = list(raw)
    if raw and raw[-1] == b"":
        raw.pop()  # artifact of splitting a trailing-newline file
    in_comments = False
    for line in raw:
        text = line.decode("latin-1")
        if in_comments:
            model.comments.append(text)
            continue
        if text == "c":
            in_comments = True
            continue
        if not text:
            continue
        head, _, name = text.partition(" ")
        if (len(head) >= 2 and head[0] in "ilobcjf"
                and head[1:].isdigit()):
            model.symbols[head] = name
        else:
            raise FormatError(f"malformed symbol-table line {text!r}")


def _read_ascii(data: bytes) -> AigerModel:
    lines = _Lines(data.split(b"\n"))
    m, i, l, o, a, b, c, j, f = counts = _parse_header(
        lines.next("header"), "aag")
    input_lits = []
    for idx in range(i):
        (lit,) = _int_fields(lines.next("input"), 1, 1, "input")
        if lit <= 1 or _negated(lit):
            raise FormatError(f"input literal {lit} must be a positive "
                              f"non-constant literal")
        input_lits.append(lit)
    raw_latches = []
    for idx in range(l):
        fields = _int_fields(lines.next("latch"), 2, 3, "latch")
        lit, next_ = fields[0], fields[1]
        reset = fields[2] if len(fields) == 3 else 0
        if lit <= 1 or _negated(lit):
            raise FormatError(f"latch literal {lit} must be a positive "
                              f"non-constant literal")
        raw_latches.append((lit, next_, reset))
    model = AigerModel(num_inputs=i)
    _read_sections(lines, counts, model)
    raw_ands = []
    for idx in range(a):
        lhs, rhs0, rhs1 = _int_fields(lines.next("and"), 3, 3, "and")
        if lhs <= 1 or _negated(lhs):
            raise FormatError(f"AND lhs {lhs} must be a positive "
                              f"non-constant literal")
        raw_ands.append((lhs, rhs0, rhs1))
    _read_trailer(lines.rest(), model)
    _renumber(model, input_lits, raw_latches, raw_ands, m)
    model.validate()
    return model


def _renumber(model: AigerModel, input_lits: list[int],
              raw_latches: list[tuple[int, int, int]],
              raw_ands: list[tuple[int, int, int]], max_var: int) -> None:
    """Map arbitrary ascii numbering onto the canonical one."""
    mapping = {0: 0}
    defined: dict[int, tuple[int, int, int]] = {}
    for lit in input_lits:
        if _var(lit) in mapping:
            raise FormatError(f"literal {lit} defined twice")
        mapping[_var(lit)] = len(mapping)
    for lit, _next, _reset in raw_latches:
        if _var(lit) in mapping:
            raise FormatError(f"literal {lit} defined twice")
        mapping[_var(lit)] = len(mapping)
    for lhs, rhs0, rhs1 in raw_ands:
        if _var(lhs) in mapping or _var(lhs) in defined:
            raise FormatError(f"literal {lhs} defined twice")
        defined[_var(lhs)] = (lhs, rhs0, rhs1)

    # Topological order over the AND gates (ascii files may list a gate
    # after its uses), via an explicit DFS stack.
    order: list[int] = []
    visiting: set[int] = set()
    for root in defined:
        if root in mapping:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                visiting.discard(node)
                mapping[node] = len(mapping)
                order.append(node)
                continue
            if node in mapping:
                continue
            if node not in defined:
                raise FormatError(
                    f"literal {2 * node} used but never defined")
            if node in visiting:
                raise FormatError(
                    f"combinational cycle through literal {2 * node}")
            visiting.add(node)
            stack.append((node, True))
            _lhs, rhs0, rhs1 = defined[node]
            for rhs in (rhs1, rhs0):
                if _var(rhs) not in mapping:
                    stack.append((_var(rhs), False))

    if len(mapping) - 1 > max_var:
        raise FormatError(
            f"AIGER header M={max_var} smaller than the "
            f"{len(mapping) - 1} variables actually defined")

    def relit(lit: int, what: str) -> int:
        var = _var(lit)
        if var not in mapping:
            raise FormatError(f"{what} literal {lit} used but never "
                              f"defined")
        return 2 * mapping[var] + (lit & 1)

    for i, (lit, next_, reset) in enumerate(raw_latches):
        new_lit = relit(lit, "latch")
        if reset not in (0, 1):
            reset = relit(reset, "latch reset")
            if reset != new_lit:
                raise FormatError(
                    f"latch reset {reset} must be 0, 1, or the latch "
                    f"literal")
        model.latches.append(Latch(new_lit, relit(next_, "latch next"),
                                   reset))
    for node in order:
        lhs, rhs0, rhs1 = defined[node]
        a, b = relit(rhs0, "and rhs"), relit(rhs1, "and rhs")
        if a < b:
            a, b = b, a
        model.ands.append((2 * mapping[node], a, b))
    model.outputs = [relit(x, "output") for x in model.outputs]
    model.bads = [relit(x, "bad") for x in model.bads]
    model.constraints = [relit(x, "constraint") for x in model.constraints]
    model.justice = [[relit(x, "justice") for x in js]
                     for js in model.justice]
    model.fairness = [relit(x, "fairness") for x in model.fairness]


def _read_binary(data: bytes) -> AigerModel:
    try:
        header_end = data.index(b"\n")
    except ValueError:
        raise FormatError("truncated binary AIGER: no header line")
    m, i, l, o, a, b, c, j, f = counts = _parse_header(
        data[:header_end], "aig")
    if m != i + l + a:
        raise FormatError(
            f"binary AIGER requires M = I + L + A; got "
            f"M={m} I={i} L={l} A={a}")
    body = data[header_end + 1:]
    # The sections before the AND block are plain text lines.
    n_text_lines = l + o + b + c + j + f
    pos = 0
    text_lines: list[bytes] = []
    justice_lines = 0
    seen = 0
    while seen < n_text_lines + justice_lines:
        nl = body.find(b"\n", pos)
        if nl < 0:
            raise FormatError("truncated binary AIGER: missing section "
                              "lines before the AND block")
        line = body[pos:nl]
        text_lines.append(line)
        # Justice sizes appear after bads+constraints; each adds that
        # many literal lines to the text block.
        first_justice = l + o + b + c
        if j and first_justice <= seen < first_justice + j:
            justice_lines += _int_fields(line, 1, 1, "justice size")[0]
        pos = nl + 1
        seen += 1

    lines = _Lines(text_lines)
    model = AigerModel(num_inputs=i)
    for idx in range(l):
        fields = _int_fields(lines.next("latch"), 1, 2, "latch")
        lit = 2 * (i + 1 + idx)
        reset = fields[1] if len(fields) == 2 else 0
        if reset not in (0, 1) and reset != lit:
            raise FormatError(
                f"latch reset {reset} must be 0, 1, or the latch "
                f"literal {lit}")
        model.latches.append(Latch(lit, fields[0], reset))
    _read_sections(lines, [m, i, 0, o, a, b, c, j, f], model)

    # Binary AND block: delta-encoded pairs.
    max_allowed = 10 * (m + 1)  # loose bound for delta sanity
    for idx in range(a):
        lhs = 2 * (i + l + 1 + idx)
        delta0, pos = _read_leb(body, pos, max_allowed)
        delta1, pos = _read_leb(body, pos, max_allowed)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs1 < 0:
            raise FormatError(
                f"binary AND {idx}: deltas {delta0},{delta1} underflow")
        model.ands.append((lhs, rhs0, rhs1))
    _read_trailer(body[pos:].split(b"\n") if pos < len(body) else [],
                  model)
    model.validate()
    return model


def _read_leb(data: bytes, pos: int, max_value: int) -> tuple[int, int]:
    """One LEB128-style delta from the binary AND block."""
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise FormatError("truncated binary AIGER AND block")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if value > max_value:
            raise FormatError("binary AIGER delta out of range")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _header_counts(model: AigerModel) -> list[int]:
    counts = [len(model.bads), len(model.constraints),
              len(model.justice), len(model.fairness)]
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _section_lines(model: AigerModel) -> list[str]:
    lines = [str(lit) for lit in model.outputs]
    lines += [str(lit) for lit in model.bads]
    lines += [str(lit) for lit in model.constraints]
    lines += [str(len(js)) for js in model.justice]
    for js in model.justice:
        lines += [str(lit) for lit in js]
    lines += [str(lit) for lit in model.fairness]
    return lines


def _trailer_lines(model: AigerModel) -> list[str]:
    lines = [f"{key} {name}".rstrip()
             for key, name in model.symbols.items()]
    if model.comments:
        lines.append("c")
        lines += model.comments
    return lines


def write_aiger_ascii(model: AigerModel) -> str:
    """Serialize to the ascii ``aag`` format (returns text)."""
    model.validate()
    header = ["aag", str(model.max_var), str(model.num_inputs),
              str(len(model.latches)), str(len(model.outputs)),
              str(len(model.ands))]
    header += [str(n) for n in _header_counts(model)]
    lines = [" ".join(header)]
    lines += [str(model.input_lit(i)) for i in range(model.num_inputs)]
    for latch in model.latches:
        if latch.reset == 0:
            lines.append(f"{latch.lit} {latch.next}")
        else:
            lines.append(f"{latch.lit} {latch.next} {latch.reset}")
    lines += _section_lines(model)
    lines += [f"{lhs} {rhs0} {rhs1}" for lhs, rhs0, rhs1 in model.ands]
    lines += _trailer_lines(model)
    return "\n".join(lines) + "\n"


def write_aiger_binary(model: AigerModel) -> bytes:
    """Serialize to the binary ``aig`` format (returns bytes)."""
    model.validate()
    header = ["aig", str(model.max_var), str(model.num_inputs),
              str(len(model.latches)), str(len(model.outputs)),
              str(len(model.ands))]
    header += [str(n) for n in _header_counts(model)]
    out = bytearray((" ".join(header) + "\n").encode("latin-1"))
    for latch in model.latches:
        if latch.reset == 0:
            out += f"{latch.next}\n".encode("latin-1")
        else:
            out += f"{latch.next} {latch.reset}\n".encode("latin-1")
    for line in _section_lines(model):
        out += (line + "\n").encode("latin-1")
    for lhs, rhs0, rhs1 in model.ands:
        out += _write_leb(lhs - rhs0)
        out += _write_leb(rhs0 - rhs1)
    trailer = _trailer_lines(model)
    if trailer:
        out += ("\n".join(trailer) + "\n").encode("latin-1")
    return bytes(out)


def _write_leb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)
