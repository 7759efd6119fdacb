"""The engine stack imports nothing above it.

Model checking and everything it stands on (SAT, AIG, IR, SVA,
simulation, traces, HDL, file formats, candidate mining) must not reach
up into the layers that schedule and persist its work: a check whose
inputs come from a campaign store or a worker fabric is a check the
query key cannot see.  Nor into the LLM layer: the candidates PDR
seeds its frames with are mined from the design, not asked of a model.

The walk below reads the source; the two pins after it hold the same
rule at run time.  A package init of the engine stack (and the
top-level ``repro`` init) holds a docstring and no import, so importing
a module loads its own imports and nothing a facade would pull in
beside them.
"""

import ast
import os
import subprocess
import sys
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


def _engine_modules() -> list[str]:
    names = []
    for layer in ENGINE_STACK:
        for path in sorted((SRC / layer).rglob("*.py")):
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            names.append(".".join(parts))
    return names


def test_importing_the_engine_stack_loads_nothing_above_it():
    script = ("import importlib, sys\n"
              "for name in sys.argv[1:]:\n"
              "    importlib.import_module(name)\n"
              "print(*sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *_engine_modules()],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "repro.mc.pdr.engine" in loaded
    assert [name for name in loaded if _is_above(name)] == []


def _package_inits() -> list[Path]:
    inits = [SRC / "__init__.py"]
    for layer in ENGINE_STACK:
        inits += sorted((SRC / layer).rglob("__init__.py"))
    return inits


@pytest.mark.parametrize(
    "init", _package_inits(),
    ids=lambda path: str(path.parent.relative_to(SRC.parent)))
def test_package_init_is_only_a_docstring(init):
    imports = [node.lineno for node in ast.walk(ast.parse(init.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and not (isinstance(node, ast.ImportFrom)
                        and node.module == "__future__")]
    assert imports == []
