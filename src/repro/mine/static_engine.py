"""Static + simulation-based invariant candidate generation.

This engine is the analytical core of the candidate pool — what PDR's
frame seeding admits and what the simulated LLM's personas sample as
their "design understanding".  It combines:

* **structural templates** over the elaborated transition system —
  symmetric registers (the paper's ``count1``/``count2``), saturation
  bounds mined from comparisons against constants, one-hot reset states,
  shadow/pipeline registers (``s == $past(r)``), nonzero reset values;
* **relation mining** over short randomized simulations — affine pair and
  triple relations (``a - b == K``, ``a - b - c == K``), one-hot-ness,
  nonzero-ness, and bound tightening, each checked against every sampled
  reachable state;
* **specification hints** — phrases mined from the spec document
  ("remain equal", "one-hot", "never exceeds N") boost the score of
  matching structural candidates, modeling the Fig. 1 flow's use of the
  spec as an input.

Everything emitted is a *candidate*: PDR admits and the flows screen and
prove before assuming.  Scores encode confidence and drive persona
recall sampling.
"""

from __future__ import annotations

import re

from repro.errors import SimulationError
from repro.ir import expr as E
from repro.ir.system import TransitionSystem
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus
from repro.mine.candidates import Candidate, dedupe
from repro.utils.bits import mask, popcount


#: Randomized runs from reset, cycles per run, and pool size: one
#: budget for every consumer of the pool.
SIM_RUNS = 6
SIM_CYCLES = 48
MAX_CANDIDATES = 24


def _hex(value: int, width: int) -> str:
    return f"{width}'h{value:x}"


class StaticSynthesizer:
    """Generates candidate invariants for one design."""

    def __init__(self, system: TransitionSystem, spec_text: str = "",
                 seed: int = 0):
        self.system = system
        self.spec_text = spec_text or ""
        self.seed = seed
        self._samples: list[dict[str, int]] | None = None
        # Only "user" state (not SVA monitors) participates in templates.
        self.states = {n: v for n, v in system.states.items()
                       if not n.startswith("_mon.")}

    # ------------------------------------------------------------------

    def candidates(self) -> list[Candidate]:
        """This design's best :data:`MAX_CANDIDATES` candidates, best
        first."""
        out: list[Candidate] = []
        out += self._symmetric_registers()
        out += self._shadow_registers()
        out += self._constant_bounds()
        out += self._reset_shape_predicates()
        out += self._mined_affine_relations()
        out += self._mined_xor_relations()
        out += self._mined_unary_predicates()
        out = dedupe(out)
        out = self._apply_spec_hints(out)
        out.sort(key=lambda c: -c.score)
        return out[:MAX_CANDIDATES]

    # ------------------------------------------------------------------
    # Structural templates
    # ------------------------------------------------------------------

    def _symmetric_registers(self) -> list[Candidate]:
        """Registers with identical update logic modulo their own name.

        This is precisely the paper's synchronized-counters shape: equal
        reset values and next-state functions that differ only by the
        register's own name imply the registers stay equal forever.
        """
        out = []
        names = list(self.states)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                va, vb = self.states[a], self.states[b]
                if va.width != vb.width:
                    continue
                next_a = self.system.next.get(a)
                next_b = self.system.next.get(b)
                if next_a is None or next_b is None:
                    continue
                sig_a = E.structural_signature(next_a, {a: "§"})
                sig_b = E.structural_signature(next_b, {b: "§"})
                if sig_a != sig_b:
                    continue
                init_a = self.system.init.get(a)
                init_b = self.system.init.get(b)
                if init_a is None or init_b is None or \
                        not (init_a.is_const and init_b.is_const and
                             init_a.value == init_b.value):
                    continue
                out.append(Candidate(
                    sva=f"{a} == {b}",
                    kind="symmetric_registers",
                    score=0.95,
                    rationale=(f"`{a}` and `{b}` share the same reset value "
                               "and identical update logic, so they remain "
                               "equal in every reachable state"),
                    signals=(a, b)))
        return out

    def _shadow_registers(self) -> list[Candidate]:
        """``s <= r`` pipelines: s equals r delayed by one cycle.

        The reset mux is folded away first (reset is pinned inactive in
        the proof environment), so ``q <= rst ? 0 : r`` still matches.
        """
        out = []
        pins = {n: E.const(v, self.system.inputs[n].width)
                for n, v in self._reset_pin().items()
                if n in self.system.inputs}
        for name, raw_next in self.system.next.items():
            if name.startswith("_mon."):
                continue
            next_expr = E.substitute(raw_next, pins) if pins else raw_next
            if next_expr.is_var and next_expr.name in self.states and \
                    next_expr.name != name:
                out.append(Candidate(
                    sva=f"{name} == $past({next_expr.name})",
                    kind="shadow_register",
                    score=0.7,
                    rationale=(f"`{name}` is a pipeline copy of "
                               f"`{next_expr.name}`"),
                    signals=(name, next_expr.name)))
        return out

    def _constant_bounds(self) -> list[Candidate]:
        """Bounds mined from comparisons against constants in the design."""
        out = []
        for name, v in self.states.items():
            consts = self._comparison_constants(name)
            for c in consts:
                if 0 < c < mask(v.width):
                    out.append(Candidate(
                        sva=f"{name} <= {_hex(c, v.width)}",
                        kind="constant_bound",
                        score=0.55,
                        rationale=(f"the design compares `{name}` against "
                                   f"{c}, suggesting it is an upper bound"),
                        signals=(name,)))
                    out.append(Candidate(
                        sva=f"{name} < {_hex(c, v.width)}",
                        kind="constant_bound",
                        score=0.45,
                        rationale=(f"`{name}` may stay strictly below {c}"),
                        signals=(name,)))
        return out

    def _comparison_constants(self, state_name: str) -> set[int]:
        found: set[int] = set()
        roots = [self.system.next[n] for n in self.states
                 if n in self.system.next]
        for node in E.iter_dag(roots):
            if node.op in ("ult", "ule", "eq", "ne"):
                a, b = node.args
                pair = None
                if a.is_var and a.name == state_name and b.is_const:
                    pair = b.value
                elif b.is_var and b.name == state_name and a.is_const:
                    pair = a.value
                if pair is not None:
                    found.add(pair)
        return found

    def _reset_shape_predicates(self) -> list[Candidate]:
        """Predicates suggested by the shape of the reset value."""
        out = []
        for name, v in self.states.items():
            init = self.system.init.get(name)
            if init is None or not init.is_const:
                continue
            if v.width > 1 and popcount(init.value) == 1:
                out.append(Candidate(
                    sva=f"$onehot({name})",
                    kind="onehot_state",
                    score=0.6,
                    rationale=(f"`{name}` resets to a one-hot value; "
                               "rotation-style updates preserve that"),
                    signals=(name,)))
            if init.value != 0 and v.width > 1:
                out.append(Candidate(
                    sva=f"{name} != {v.width}'h0",
                    kind="nonzero_state",
                    score=0.5,
                    rationale=(f"`{name}` resets to a nonzero value and "
                               "may never reach zero"),
                    signals=(name,)))
        return out

    # ------------------------------------------------------------------
    # Simulation-based relation mining
    # ------------------------------------------------------------------

    def _sample_states(self) -> list[dict[str, int]]:
        """State+define valuations over randomized runs from reset."""
        if self._samples is not None:
            return self._samples
        samples: list[dict[str, int]] = []
        pinned = self._reset_pin()
        sim = Simulator(self.system, check_constraints=False)
        for run in range(SIM_RUNS):
            try:
                sim.reset()
            except SimulationError:
                sim.load_state({n: 0 for n in self.system.states})
            stim = RandomStimulus(SIM_CYCLES, seed=self.seed + run,
                                  pinned=pinned)
            for inputs in stim.cycles(self.system, lambda: sim.state_values):
                samples.append(sim.step(inputs).values)
        self._samples = samples
        return samples

    def _relational_signals(self) -> dict[str, int]:
        """Signals participating in relation mining: user states plus
        moderately-sized defines (wires often name the interesting
        intermediate values, e.g. an expected codeword)."""
        table = {n: v.width for n, v in self.states.items()}
        for name, e in self.system.defines.items():
            if 2 <= e.width <= 64 and not name.startswith("_mon."):
                table[name] = e.width
        return table

    def _reset_pin(self) -> dict[str, int]:
        """Hold inputs constrained to constants (resets) at those values."""
        pinned = {}
        for cond in self.system.constraints:
            if cond.op == "eq":
                a, b = cond.args
                if a.is_var and b.is_const and a.name in self.system.inputs:
                    pinned[a.name] = b.value
                elif b.is_var and a.is_const and \
                        b.name in self.system.inputs:
                    pinned[b.name] = a.value
        return pinned

    def _mined_affine_relations(self) -> list[Candidate]:
        """Pair/triple affine relations that hold on every sampled state."""
        samples = self._sample_states()
        if not samples:
            return []
        out = []
        names = list(self.states)
        by_width: dict[int, list[str]] = {}
        for n in names:
            by_width.setdefault(self.states[n].width, []).append(n)
        for width, group in by_width.items():
            if width < 2:
                continue
            m = mask(width)
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    diff0 = (samples[0][a] - samples[0][b]) & m
                    if all(((s[a] - s[b]) & m) == diff0 for s in samples):
                        body = f"{a} == {b}" if diff0 == 0 else \
                            f"{a} - {b} == {_hex(diff0, width)}"
                        out.append(Candidate(
                            sva=body, kind="affine_pair", score=0.8,
                            rationale=(f"`{a}` and `{b}` keep a constant "
                                       "difference in every simulated "
                                       "reachable state"),
                            signals=(a, b)))
            # Triples: a == b - c + K (classic occupancy == wptr - rptr).
            for a in group:
                for i, b in enumerate(group):
                    if b == a:
                        continue
                    for c in group[i + 1:]:
                        if c == a or c == b:
                            continue
                        k0 = (samples[0][a] - samples[0][b]
                              + samples[0][c]) & m
                        if all(((s[a] - s[b] + s[c]) & m) == k0
                               for s in samples):
                            rhs = f"{b} - {c}" if k0 == 0 else \
                                f"{b} - {c} + {_hex(k0, width)}"
                            out.append(Candidate(
                                sva=f"{a} == {rhs}",
                                kind="affine_triple", score=0.85,
                                rationale=(f"`{a}` tracks the difference "
                                           f"of `{b}` and `{c}` (an "
                                           "occupancy/pointer relation)"),
                                signals=(a, b, c)))
        return out

    def _mined_xor_relations(self) -> list[Candidate]:
        """``a == b ^ c`` relations over states and named wires.

        This is the template that discovers ECC pipeline consistency:
        the stored codeword equals the expected encoding XOR the injected
        error mask."""
        samples = self._sample_states()
        if not samples:
            return []
        table = self._relational_signals()
        by_width: dict[int, list[str]] = {}
        for n, w in table.items():
            by_width.setdefault(w, []).append(n)
        out = []
        for width, group in by_width.items():
            if len(group) < 3 or len(group) > 14:
                continue
            for a in group:
                if a not in self.states:
                    continue  # the mined equation defines a state register
                for i, b in enumerate(group):
                    if b == a:
                        continue
                    for c in group[i + 1:]:
                        if c == a or c == b:
                            continue
                        if all((s[a] ^ s[b] ^ s[c]) == 0 for s in samples):
                            out.append(Candidate(
                                sva=f"{a} == ({b} ^ {c})",
                                kind="xor_relation", score=0.82,
                                rationale=(f"`{a}` always equals "
                                           f"`{b} ^ {c}` in simulation — a "
                                           "datapath consistency relation"),
                                signals=(a, b, c)))
        return out

    def _mined_unary_predicates(self) -> list[Candidate]:
        """One-hot / nonzero / tight-bound predicates validated on samples."""
        samples = self._sample_states()
        if not samples:
            return []
        out = []
        for name, v in self.states.items():
            if v.width < 2:
                continue
            values = [s[name] for s in samples]
            if all(popcount(x) == 1 for x in values):
                out.append(Candidate(
                    sva=f"$onehot({name})", kind="onehot_state", score=0.75,
                    rationale=(f"`{name}` is one-hot in every simulated "
                               "state"),
                    signals=(name,)))
            if all(x != 0 for x in values):
                out.append(Candidate(
                    sva=f"{name} != {v.width}'h0", kind="nonzero_state",
                    score=0.55,
                    rationale=f"`{name}` never reaches zero in simulation",
                    signals=(name,)))
            top = max(values)
            # Tight power-of-two-minus-one bounds look like intended limits.
            if 0 < top < mask(v.width) and popcount(top + 1) == 1:
                out.append(Candidate(
                    sva=f"{name} <= {_hex(top, v.width)}",
                    kind="mined_bound", score=0.5,
                    rationale=(f"`{name}` never exceeds {top} in "
                               "simulation"),
                    signals=(name,)))
        return out

    # ------------------------------------------------------------------
    # Spec hints
    # ------------------------------------------------------------------

    def _apply_spec_hints(self, candidates: list[Candidate]
                          ) -> list[Candidate]:
        """Boost candidates the specification text talks about."""
        text = self.spec_text.lower()
        if not text:
            return candidates
        hints = {
            "symmetric_registers": ("equal", "lock-step", "lockstep",
                                    "in sync", "synchron", "same value"),
            "affine_pair": ("equal", "constant difference", "offset"),
            "affine_triple": ("occupancy", "fill level", "count", "pointer"),
            "onehot_state": ("one-hot", "onehot", "exactly one"),
            "nonzero_state": ("never zero", "nonzero", "non-zero"),
            "constant_bound": ("never exceed", "at most", "bounded",
                               "saturat"),
            "mined_bound": ("never exceed", "at most", "bounded"),
            "shadow_register": ("delayed", "pipeline", "previous value",
                                "one cycle"),
        }
        for c in candidates:
            for phrase in hints.get(c.kind, ()):
                if phrase in text:
                    c.score = min(1.0, c.score + 0.15)
                    c.rationale += " (the specification mentions this)"
                    break
            # Mentioning the involved signal names also helps.
            if all(re.search(rf"`?{re.escape(s)}`?", self.spec_text)
                   for s in c.signals):
                c.score = min(1.0, c.score + 0.05)
        return candidates
