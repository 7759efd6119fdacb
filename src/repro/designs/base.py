"""Design bundle: everything a verification session needs for one DUT."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DesignError
from repro.hdl.elaborate import elaborate
from repro.ir import expr as E
from repro.ir.system import TransitionSystem


def _assumption_expr(system: TransitionSystem, text: str) -> "E.Expr":
    """Compile an environment assumption (a combinational SVA body).

    Assumptions constrain inputs/states at every cycle, so they must not
    need monitor state: ``$past``-style bodies are rejected.
    """
    from repro.sva.compile import MonitorContext

    ctx = MonitorContext(system)
    prop = ctx.add(text, name="assume")
    if prop.valid_from > 0 or len(ctx.system.states) != len(system.states):
        raise DesignError(
            f"assumption {text!r} requires history operators; only "
            "combinational assumptions are supported")
    return system.resolve_defines(E.not_(prop.bad))


@dataclass
class PropertySpec:
    """One target property of a design.

    ``expect`` is the ground-truth verdict ("proven" or "violated", or
    "unknown" for corpus designs imported without one); ``needs_helper``
    marks properties whose plain k-induction fails without a
    strengthening lemma — the paper's subject matter.  ``max_k`` bounds
    the induction depth used in tests/benchmarks.  ``kind`` is
    ``"safety"`` for bad-state properties (the normal case) or
    ``"justice"`` for liveness obligations imported from AIGER justice
    sections — those carry no SVA body, and every engine must answer
    UNKNOWN on them until a liveness engine exists.
    """

    name: str
    sva: str
    expect: str = "proven"
    needs_helper: bool = False
    max_k: int = 5
    kind: str = "safety"

    def __post_init__(self) -> None:
        if self.expect not in ("proven", "violated", "unknown"):
            raise DesignError(f"bad expectation {self.expect!r}")
        if self.kind not in ("safety", "justice"):
            raise DesignError(f"bad property kind {self.kind!r}")
        if self.kind == "justice" and self.expect != "unknown":
            raise DesignError(
                "justice properties must expect 'unknown': no engine "
                "can settle liveness yet")


@dataclass
class Design:
    """An RTL design plus its verification collateral."""

    name: str
    rtl: str
    spec: str
    properties: list[PropertySpec]
    golden_helpers: list[tuple[str, str]] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    top: str | None = None
    params: dict[str, int] = field(default_factory=dict)
    reset: str | None = None
    family: str = "misc"
    notes: str = ""

    _system_cache: TransitionSystem | None = field(
        default=None, repr=False, compare=False)

    def system(self) -> TransitionSystem:
        """The elaborated transition system with assumptions (cached)."""
        if self._system_cache is None:
            system = elaborate(
                self.rtl, top=self.top, params=self.params or None,
                reset=self.reset, name=self.name)
            for text in self.assumptions:
                system.add_constraint(_assumption_expr(system, text))
            system.validate()
            self._system_cache = system
        return self._system_cache

    def property_spec(self, name: str) -> PropertySpec:
        for p in self.properties:
            if p.name == name:
                return p
        raise DesignError(
            f"design {self.name!r} has no property {name!r}; available: "
            f"{[p.name for p in self.properties]}")
