"""The engine stack imports nothing above it.

Model checking and everything it stands on (SAT, AIG, IR, SVA,
simulation, traces, HDL, file formats, candidate mining) must not reach
up into the layers that schedule and persist its work: a check whose
inputs come from a campaign store or a worker fabric is a check the
query key cannot see.  Nor into the LLM layer: the candidates PDR
seeds its frames with are mined from the design, not asked of a model.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ENGINE_STACK = ("mc", "sat", "aig", "ir", "sva", "sim", "trace", "hdl",
                "formats", "mine")
ABOVE = ("repro.campaign", "repro.dist", "repro.flow", "repro.cli",
         "repro.genai")


def _imported_modules(source: str, package: str) -> list[tuple[int, str]]:
    """Every module ``source`` (a module of ``package``) imports, at any
    depth (function bodies included), as ``(line, absolute name)``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                module = ".".join(parts + ([module] if module else []))
            out.append((node.lineno, module))
    return out


def _is_above(module: str) -> bool:
    return any(module == top or module.startswith(top + ".")
               for top in ABOVE)


@pytest.mark.parametrize("layer", ENGINE_STACK)
def test_engine_stack_imports_nothing_above_it(layer):
    offenders = []
    for path in sorted((SRC / layer).rglob("*.py")):
        name = path.relative_to(SRC.parent).with_suffix("")
        package = ".".join(name.parts[:-1])
        offenders += [f"{name}.py:{line} imports {module}"
                      for line, module
                      in _imported_modules(path.read_text(), package)
                      if _is_above(module)]
    assert offenders == []


def test_the_walk_sees_nested_and_relative_imports():
    source = ("def f():\n"
              "    from repro.campaign.store import ProofStore\n"
              "    from ..dist import queue\n"
              "    from . import cache\n")
    found = [module for _line, module
             in _imported_modules(source, "repro.mc")]
    assert found == ["repro.campaign.store", "repro.dist", "repro.mc"]
    assert [_is_above(m) for m in found] == [True, True, False]
