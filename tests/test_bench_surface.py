"""The end-to-end benchmark's tracer still finds everything it patches.

``benchmarks/e2e/tracer.py`` wraps layer entry points by name: module
functions, and methods looked up as ``cls.__dict__[attr]`` (several in
loops over method names).  Renaming or removing one of them in
``src/`` breaks every traced benchmark run, and only the CI e2e jobs
would notice.  This test reads ``benchmarks/e2e`` and never edits it:
in a fresh interpreter it installs the tracer and removes it again.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"


def test_tracer_installs_and_uninstalls():
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import tracer
        from repro.sat.solver import Solver

        t = tracer.Tracer()
        tracer.install(t)
        assert hasattr(Solver.__dict__["solve_limited"], "__wrapped__")
        t.uninstall()
        assert not hasattr(Solver.__dict__["solve_limited"], "__wrapped__")
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(E2E)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
