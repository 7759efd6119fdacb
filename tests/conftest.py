"""Shared fixtures and deterministic hypothesis profiles.

Two hypothesis profiles: ``ci`` (derandomized, fixed seed, no
deadline) keeps fuzz tests reproducible in CI — the same examples on
every run, so a tier-1 job can never flake on an unlucky draw — while
``dev`` (the default elsewhere) keeps genuinely random exploration on
developer machines.  Selected by the ``CI`` environment variable, as
set by GitHub Actions.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.ir import expr as E
from repro.ir.system import TransitionSystem

settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", deadline=None)
settings.load_profile("ci" if os.environ.get("CI") else "dev")


@pytest.fixture
def coordinators(monkeypatch) -> list:
    """Every ``Coordinator`` built while the test runs (``run_campaign``
    makes its own and does not hand it back)."""
    from repro.dist import Coordinator
    built: list = []
    init = Coordinator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Coordinator, "__init__", recording_init)
    return built


@pytest.fixture
def fabric_timing(monkeypatch):
    """Set the distributed fabric's timing constants for one test:
    ``fabric_timing(poll=S)`` is a worker's idle poll and the
    coordinator's supervision tick, ``fabric_timing(timeout=S)`` the
    per-request wire timeout.  Both are read at call time, and the
    workers a coordinator forks inherit them."""
    import repro.dist.remote as remote
    import repro.dist.worker as worker

    def set_timing(poll: float | None = None,
                   timeout: float | None = None) -> None:
        if poll is not None:
            monkeypatch.setattr(worker, "POLL_INTERVAL", poll)
        if timeout is not None:
            monkeypatch.setattr(remote, "DEFAULT_TIMEOUT", timeout)

    return set_timing


@pytest.fixture
def counter_system() -> TransitionSystem:
    """A 4-bit wrapping counter with enable."""
    s = TransitionSystem("counter4")
    en = s.add_input("en", 1)
    c = s.add_state("count", 4, init=E.const(0, 4))
    s.set_next("count", E.ite(en, E.add(c, E.const(1, 4)), c))
    return s


@pytest.fixture
def sync_counters_system() -> TransitionSystem:
    """The paper's Listing 1 pair, 8-bit for test speed."""
    s = TransitionSystem("sync8")
    c1 = s.add_state("count1", 8, init=E.const(0, 8))
    c2 = s.add_state("count2", 8, init=E.const(0, 8))
    one = E.const(1, 8)
    s.set_next("count1", E.add(c1, one))
    s.set_next("count2", E.add(c2, one))
    return s


