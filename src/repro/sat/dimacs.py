"""DIMACS CNF reading/writing.

Useful for debugging the solver against external instances and for dumping
the model checker's queries for offline inspection.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SatError
from repro.sat.solver import Solver


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF text; returns ``(num_vars, clauses)``."""
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    declared = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            declared = True
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                num_vars = max(num_vars, abs(lit))
                current.append(lit)
    if current:
        clauses.append(current)
    if not declared and not clauses:
        raise SatError("empty DIMACS input")
    return num_vars, clauses


def to_dimacs(num_vars: int, clauses: Iterable[list[int]]) -> str:
    """Render clauses as DIMACS CNF text."""
    clause_list = [list(c) for c in clauses]
    lines = [f"p cnf {num_vars} {len(clause_list)}"]
    for clause in clause_list:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def solver_from_dimacs(text: str) -> Solver:
    """Build a fresh solver loaded with a DIMACS instance."""
    num_vars, clauses = parse_dimacs(text)
    solver = Solver()
    for _ in range(num_vars):
        solver.add_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver
