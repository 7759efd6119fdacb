"""Cone-of-influence over the registry and the file corpus: the support
memo changes how often the DAG is walked, never what is kept."""

import dataclasses
from pathlib import Path
from typing import Iterable

import pytest

from repro.campaign.scheduler import compile_design
from repro.designs import all_designs, load_corpus
from repro.ir import expr as E
from repro.ir import passes
from repro.ir.system import TransitionSystem
from repro.mc.cache import system_fingerprint

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

DESIGNS = all_designs() + load_corpus(CORPUS)


def _walked_support(root: E.Expr) -> set[str]:
    return {n.name for n in E.iter_dag([root]) if n.is_var}


def _reference_state_support(system: TransitionSystem,
                             roots: Iterable[E.Expr]) -> set[str]:
    """The fixpoint as it was before supports were memoised: every
    support re-walked, every constraint re-read in every round."""
    relevant: set[str] = set()
    frontier: set[str] = set()
    for root in roots:
        frontier |= _walked_support(root) & set(system.states)
    while frontier:
        relevant |= frontier
        next_frontier: set[str] = set()
        for name in frontier:
            for fn in (system.next.get(name), system.init.get(name)):
                if fn is not None:
                    next_frontier |= _walked_support(fn) & set(system.states)
        for cond in system.constraints:
            sup = _walked_support(cond) & set(system.states)
            if sup & relevant:
                next_frontier |= sup
        frontier = next_frontier - relevant
    return relevant


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.name)
def test_scoping_matches_the_walked_reference(design, monkeypatch):
    scoped = compile_design(design)
    monkeypatch.setattr(passes, "state_support", _reference_state_support)
    reference = compile_design(design)
    assert [spec.name for spec, _, _ in scoped] == \
        [spec.name for spec, _, _ in reference]
    for (spec, _, system), (_, _, expected) in zip(scoped, reference):
        assert set(system.states) == set(expected.states), spec.name
        # The proof store's keys fingerprint the scoped system.
        assert system_fingerprint(system) == \
            system_fingerprint(expected), spec.name


@pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
def test_recompiling_a_design_walks_no_new_root(design):
    compile_design(design)
    before = len(E._SUPPORTS)
    compile_design(dataclasses.replace(design, _system_cache=None))
    assert len(E._SUPPORTS) == before
