"""Conflict-driven clause-learning (CDCL) SAT solver.

A from-scratch MiniSat-lineage solver providing the proof engine for the
model checker.  Features: two-watched-literal propagation with blocker
literals, VSIDS variable activity on an indexed binary heap with phase
saving, first-UIP clause learning with self-subsumption minimization,
Luby restarts, and glue-(LBD-)aware learnt clause database reduction
with lazy deletion plus arena garbage collection.  The public interface
is incremental in the "fresh clauses + solve under assumptions" style:

>>> s = Solver()
>>> a, b = s.add_var(), s.add_var()
>>> s.add_clause([a, b])
True
>>> s.solve(assumptions=[-a])
True
>>> s.model_value(b)
True
>>> c = s.add_var()
>>> s.solve(assumptions=[c, -a, -b])
False
>>> sorted(s.failed_assumptions())
[-2, -1]

Literals use DIMACS conventions externally (nonzero ints, negative =
negated) and an internal packed encoding (``var << 1 | sign``).

Data layout (the solve hot path)
--------------------------------

Clauses live in one flat integer arena (``_ca``) instead of per-clause
objects: a clause is just an offset ``cref`` with the layout
``[size, lbd, lit0, lit1, ...]``, so the propagation loop reads
literals with plain integer indexing and zero attribute lookups.  Watch
lists are flat interleaved ``[cref, blocker, cref, blocker, ...]``
lists: the *blocker* is a literal of the clause (usually the other
watched literal) whose truth lets propagation skip the clause without
touching the arena at all.  Assignment state is a *literal-indexed*
value array (``_lv[lit]`` is 1/-1/0 for true/false/unassigned), so the
hot loop's truth test is a single list index instead of the
``assigns[lit >> 1] == (lit & 1) ^ 1`` shift/mask/xor dance — at the
price of two writes per (much rarer) assignment.  Binary clauses take a
dedicated fast path: their blocker is always the other literal, so unit
propagation and conflict detection read nothing from the arena and
never move the watch entry.  Deleting a clause flips its size slot
negative — an O(1) mark that propagation sweeps drop lazily — and the
arena is compacted (crefs remapped, watches rebuilt) once a third of it
is dead.  ``array('l')`` was benchmarked for the arena and the watch
lists and rejected: on CPython its write path (``__setitem__`` plus
boxing every read) loses ~15% against flat lists of small ints, which
the interpreter caches.

The VSIDS order is an indexed binary max-heap (`_heap` of vars plus a
`_hpos` position array): activity bumps sift in place (decrease-key)
and unassignment re-inserts, so there are no stale entries and no
rebuild-from-scratch scans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SatError

_UNDEF = 2

#: VSIDS activity decay per conflict: variable bumps grow by 1/0.95.
VAR_DECAY = 0.95
#: Learnt-clause activity decay per conflict.
CLAUSE_DECAY = 0.999


@dataclass
class SatStats:
    """Cumulative search statistics (monotone across solve() calls)."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    learned_literals: int = 0
    db_reductions: int = 0
    max_vars: int = 0
    clauses_added: int = 0
    #: ``solve_limited`` calls so far.  A model belongs to one call, so
    #: this is also the token model-derived memos are keyed on.
    solves: int = 0
    #: Wall time spent inside ``solve_limited`` — the denominator for
    #: the propagations/sec figures the perf-regression harness tracks.
    solve_seconds: float = 0.0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


def _lit(internal_var: int, negative: bool) -> int:
    return internal_var << 1 | int(negative)


class Solver:
    """Incremental CDCL solver."""

    def __init__(self, restart_base: int = 100):
        self._nvars = 0
        # Clause arena: [size, lbd, lit0, lit1, ...] per clause; a
        # negative size marks a deleted clause (lazily swept).  lbd is 0
        # for problem clauses and >= 1 for learnts, doubling as the
        # learnt flag.
        self._ca: list[int] = []
        self._clauses: list[int] = []       # problem clause crefs
        self._learnts: list[int] = []       # learnt clause crefs
        self._cact: dict[int, float] = {}   # learnt clause activity
        self._wasted = 0                    # dead arena slots
        # Flat watch lists: [cref, blocker, ...] per literal.  Binary
        # clauses live in their own lists ([cref, other, ...]): their
        # watches never move, so propagation walks them with zero
        # compaction bookkeeping and never touches the arena.
        self._watches: list[list[int]] = [[], []]
        self._bwatches: list[list[int]] = [[], []]
        # Literal-indexed values: 1 true, -1 false, 0 unassigned.
        self._lv: list[int] = [0, 0]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]       # cref or -1
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._restart_base = restart_base
        self._max_learnts = 2000.0
        self._learnt_growth = 1.3
        # Indexed VSIDS max-heap: _heap holds vars, _hpos[v] is v's
        # position in _heap or -1.
        self._heap: list[int] = []
        self._hpos: list[int] = [-1]
        self._seen: list[int] = [0]
        self._conflict_limit: int | None = None
        self.stats = SatStats()
        self._model: list[int] = []
        # Internal literals of the assumptions the most recent False
        # answer rests on; None while that answer is not False.
        self._core: list[int] | None = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def add_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self._nvars += 1
        self._lv.extend((0, 0))
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(0)
        self._seen.append(0)
        self._hpos.append(-1)
        self._watches.append([])
        self._watches.append([])
        self._bwatches.append([])
        self._bwatches.append([])
        self.stats.max_vars = self._nvars
        self._heap_insert(self._nvars)
        return self._nvars

    def num_vars(self) -> int:
        return self._nvars

    def add_clause(self, dimacs_lits: list[int]) -> bool:
        """Add a clause; returns False if the formula is now trivially UNSAT.

        Clauses may only be added at decision level 0 (i.e. not from inside
        a model callback); the incremental style supported here is
        "add clauses between solve() calls".
        """
        if self._trail_lim:
            raise SatError("add_clause called while search is in progress")
        if not self._ok:
            return False
        self.stats.clauses_added += 1
        lits = []
        seen_pos: set[int] = set()
        for d in dimacs_lits:
            lit = self._from_dimacs(d)
            value = self._value(lit)
            if value == 1 or (lit ^ 1) in seen_pos:
                return True  # satisfied or tautological at level 0
            if value == 0 or lit in seen_pos:
                continue  # falsified or duplicate literal
            seen_pos.add(lit)
            lits.append(lit)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], -1):
                self._ok = False
                return False
            # Level-0 BCP is solver work (BMC encodings are unit-heavy),
            # so it counts toward solve_seconds like in-search BCP does.
            started = time.perf_counter()
            self._ok = self._propagate() < 0
            self.stats.solve_seconds += time.perf_counter() - started
            return self._ok
        cref = self._alloc(lits, lbd=0)
        self._attach(cref)
        self._clauses.append(cref)
        return True

    def add_and_gate(self, a: int, b: int) -> int:
        """The DIMACS literal that stands for ``a AND b``.

        The Tseitin hot path in one call.  Level-0 facts fold first: a
        fanin already false makes the gate that false literal, one
        already true makes the gate an alias of the other fanin — no
        variable, no clause.  Only an open gate allocates a variable
        ``g`` and stores ``(-g a) (-g b) (g -a -b)`` directly in the
        arena and watch lists (what three ``add_clause`` calls would
        leave behind, in the same order).  Folding reads assignments, so
        it is sound only at decision level 0, where they are permanent:
        the precondition is ``add_clause``'s.
        """
        if self._trail_lim:
            raise SatError("add_and_gate called while search is in progress")
        la = self._from_dimacs(a)
        lb = self._from_dimacs(b)
        if not self._ok:
            return a  # formula already UNSAT: any literal will do
        lv = self._lv
        value = lv[la]
        if value:
            return b if value > 0 else a
        value = lv[lb]
        if value:
            return a if value > 0 else b
        if la == lb:
            return a
        g = self.add_var()
        if la == lb ^ 1:
            self.add_clause([-g])
            return g
        pos = g << 1
        neg = pos | 1
        ca = self._ca
        c1 = len(ca)
        c2 = c1 + 4
        c3 = c1 + 8
        ca += (2, 0, neg, la, 2, 0, neg, lb, 3, 0, pos, la ^ 1, lb ^ 1)
        bwatches = self._bwatches
        bwatches[pos] += (c1, la, c2, lb)
        bwatches[la ^ 1] += (c1, neg)
        bwatches[lb ^ 1] += (c2, neg)
        watches = self._watches
        watches[neg] += (c3, la ^ 1)
        watches[la] += (c3, pos)
        self._clauses += (c1, c2, c3)
        self.stats.clauses_added += 3
        return g

    def add_ite_gate(self, s: int, t: int, e: int) -> int:
        """The DIMACS literal that stands for ``t if s else e``.

        Sibling of :meth:`add_and_gate` for the multiplexer / XOR shape
        (``t == -e`` is ``s XOR e``).  Level-0 facts fold first: a
        decided selector makes the gate the chosen data literal, equal
        data literals make it that literal, and a data literal that is
        decided — or is the selector itself, which decides it on its
        own branch — leaves an AND / OR, which :meth:`add_and_gate`
        folds further.  Only an open gate allocates a variable ``g``
        and stores ``(g -s -t) (-g -s t) (g s -e) (-g s e)`` directly
        in the arena and watch lists — plus, for a proper multiplexer,
        the redundant ``(g -t -e) (-g t e)``: they let agreeing data
        decide the gate before the selector is known, which on
        multiplexer-heavy datapaths (an up/down counter's BMC) halves
        the propagations (for an XOR they would be tautologies).  Same
        precondition as ``add_clause``: decision level 0 only.
        """
        if self._trail_lim:
            raise SatError("add_ite_gate called while search is in progress")
        ls = self._from_dimacs(s)
        lt = self._from_dimacs(t)
        le = self._from_dimacs(e)
        if not self._ok:
            return t  # formula already UNSAT: any literal will do
        lv = self._lv
        value = lv[ls]
        if value:
            return t if value > 0 else e
        if lt == le:
            return t
        value = 1 if lt == ls else -1 if lt == ls ^ 1 else lv[lt]
        if value:       # s ? 1 : e  ==  s | e;   s ? 0 : e  ==  -s & e
            return -self.add_and_gate(-s, -e) if value > 0 \
                else self.add_and_gate(-s, e)
        value = -1 if le == ls else 1 if le == ls ^ 1 else lv[le]
        if value:       # s ? t : 1  ==  -s | t;  s ? t : 0  ==  s & t
            return -self.add_and_gate(s, -t) if value > 0 \
                else self.add_and_gate(s, t)
        g = self.add_var()
        pos = g << 1
        neg = pos | 1
        ns = ls ^ 1
        ca = self._ca
        c1 = len(ca)
        c2 = c1 + 5
        c3 = c1 + 10
        c4 = c1 + 15
        ca += (3, 0, pos, ns, lt ^ 1, 3, 0, neg, ns, lt,
               3, 0, pos, ls, le ^ 1, 3, 0, neg, ls, le)
        watches = self._watches
        watches[neg] += (c1, ns, c3, ls)
        watches[pos] += (c2, ns, c4, ls)
        watches[ls] += (c1, pos, c2, neg)
        watches[ns] += (c3, pos, c4, neg)
        self._clauses += (c1, c2, c3, c4)
        self.stats.clauses_added += 4
        if lt != le ^ 1:
            c5 = c1 + 20
            c6 = c1 + 25
            ca += (3, 0, pos, lt ^ 1, le ^ 1, 3, 0, neg, lt, le)
            watches[neg] += (c5, lt ^ 1)
            watches[pos] += (c6, lt)
            watches[lt] += (c5, pos)
            watches[lt ^ 1] += (c6, neg)
            self._clauses += (c5, c6)
            self.stats.clauses_added += 2
        return g

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> bool:
        """Search for a model extending ``assumptions`` (DIMACS literals)."""
        result = self.solve_limited(assumptions)
        if result is None:  # pragma: no cover - only with budgets
            raise SatError("solve() without budget cannot be indeterminate")
        return result

    def solve_limited(self, assumptions: list[int] | None = None,
                      conflict_budget: int | None = None) -> bool | None:
        """Budgeted solve: returns None when the conflict budget runs out.

        Used for best-effort probes (e.g. the repair flow's bug check)
        where an inconclusive answer is acceptable and bounded latency
        matters more than completeness.

        The budget is **exact**: a budget of N admits at most N counted
        (and fully analyzed) conflicts; hitting conflict N+1 returns
        None without counting it, so ``stats.conflicts`` grows by
        exactly N on an indeterminate solve and by at most N otherwise.
        A non-positive budget still permits conflict-free solves.
        """
        self._core = None
        self.stats.solves += 1
        if not self._ok:
            # UNSAT outright: no model survives, no assumption is to blame.
            self._model = []
            self._core = []
            return False
        # Inline DIMACS conversion: assumption lists are long on the
        # PDR/k-induction paths and a per-literal call is measurable.
        nv = self._nvars
        assumed = []
        for d in assumptions or ():
            v = -d if d < 0 else d
            if v == 0:
                raise SatError("literal 0 is not valid")
            if v > nv:
                raise SatError(f"assumption over unknown variable {v}")
            assumed.append(v << 1 | (d < 0))
        self._conflict_limit = None if conflict_budget is None else \
            self.stats.conflicts + max(conflict_budget, 0)
        started = time.perf_counter()
        result = self._search(assumed)
        self.stats.solve_seconds += time.perf_counter() - started
        self._conflict_limit = None
        self._cancel_until(0)
        if result is not True:
            # Drop any model from an earlier SAT call: callers that read
            # model values after an UNSAT/indeterminate solve must fail
            # loudly, not silently consume a stale assignment.  PDR's
            # cube extraction depends on this.
            self._model = []
        return result

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the most recent satisfying model.

        Only valid while the most recent ``solve``/``solve_limited``
        returned True; any other outcome invalidates the model.
        """
        if not self._model:
            raise SatError("no model available (last solve returned False?)")
        if not (1 <= var <= self._nvars):
            raise SatError(f"variable {var} out of range")
        return self._model[var << 1] > 0

    def model(self) -> list[int]:
        """The model as a list of DIMACS literals."""
        model = self._model
        return [v if model[v << 1] > 0 else -v
                for v in range(1, self._nvars + 1)]

    def failed_assumptions(self) -> list[int]:
        """The assumptions the most recent False answer rests on.

        A subset of that call's assumptions (DIMACS literals, in no
        particular order) under which the formula is already
        unsatisfiable — not necessarily a minimal one.  Empty when the
        formula is UNSAT outright.  Same lifecycle as
        :meth:`model_value`: only valid while the most recent
        ``solve``/``solve_limited`` returned False; every solve call
        clears it.
        """
        core = self._core
        if core is None:
            raise SatError("no failed assumptions available "
                           "(last solve did not return False)")
        return [-(lit >> 1) if lit & 1 else lit >> 1 for lit in core]

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------

    def _search(self, assumptions: list[int]) -> bool | None:
        conflicts_until_restart = self._luby_limit()
        stats = self.stats
        while True:
            confl = self._propagate()
            if confl >= 0:
                limit = self._conflict_limit
                if limit is not None and stats.conflicts >= limit:
                    return None     # budget spent before this conflict
                stats.conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    self._core = []
                    return False
                if len(self._trail_lim) <= len(assumptions):
                    # The conflict is forced by the assumptions alone.
                    ca = self._ca
                    self._core = self._analyze_final(
                        ca[confl + 2:confl + 2 + ca[confl]])
                    return False
                learnt, bt_level = self._analyze(confl)
                self._cancel_until(bt_level)
                self._record_learnt(learnt)
                self._var_inc /= VAR_DECAY
                self._cla_inc /= CLAUSE_DECAY
                if len(self._learnts) >= self._max_learnts:
                    self._reduce_db()
                conflicts_until_restart -= 1
                continue
            if conflicts_until_restart <= 0 and \
                    len(self._trail_lim) > len(assumptions):
                stats.restarts += 1
                self._cancel_until(len(assumptions))
                conflicts_until_restart = self._luby_limit()
                continue
            # Extend assumptions first, then decide.
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._lv[lit]
                if value > 0:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value < 0:
                    # Refuted by the assumptions before it (or at
                    # level 0, where it stands accused alone).
                    self._core = [lit] + self._analyze_final((lit,))
                    return False
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, -1)
                continue
            lit = self._pick_branch()
            if lit is None:
                # C-speed snapshot of the literal-value array; the
                # model accessors index it by literal.
                self._model = self._lv[:]
                return True
            stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, -1)

    def _propagate(self) -> int:
        """Two-watched-literal BCP; returns the conflicting cref or -1.

        The hottest loop in the system: everything is a local, literal
        truth is one index into the literal-value array (``lv[lit] > 0``
        is "true", ``< 0`` is "false"), blockers short-circuit satisfied
        clauses, binary clauses resolve against the blocker without
        touching the arena, and watch lists compact in place.
        """
        trail = self._trail
        lv = self._lv
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        bwatches = self._bwatches
        ca = self._ca
        qhead = self._qhead
        dl = len(self._trail_lim)
        nt = len(trail)
        props = 0
        confl = -1
        while qhead < nt:
            p = trail[qhead]
            qhead += 1
            props += 1
            bwl = bwatches[p]
            if bwl:
                # Binary sweep: entries are (cref, other-literal) pairs
                # that never move — no arena reads, no compaction.
                bi = 0
                bn = len(bwl)
                while bi < bn:
                    other = bwl[bi + 1]
                    bi += 2
                    bv = lv[other]
                    if bv > 0:
                        continue
                    if bv < 0:              # other literal false: conflict
                        qhead = nt
                        confl = bwl[bi - 2]
                        break
                    lv[other] = 1           # unit: enqueue the other
                    lv[other ^ 1] = -1
                    v = other >> 1
                    phase[v] = (other & 1) ^ 1
                    level[v] = dl
                    reason[v] = bwl[bi - 2]
                    trail.append(other)
                    nt += 1
                if confl >= 0:
                    break
            wl = watches[p]
            if not wl:
                continue
            fl = p ^ 1          # the literal this assignment falsified
            i = j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i + 1]
                bv = lv[blocker]
                if bv > 0:      # blocker true: clause satisfied
                    if j != i:
                        wl[j] = wl[i]
                        wl[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                c = wl[i]
                i += 2
                size = ca[c]
                if size < 0:
                    continue    # deleted clause: drop the entry
                base = c + 2
                l0 = ca[base]
                if l0 == fl:    # normalize: falsified literal at slot 1
                    l0 = ca[base + 1]
                    ca[base] = l0
                    ca[base + 1] = fl
                av = lv[l0]
                if av > 0:      # first watch true: satisfied
                    wl[j] = c
                    wl[j + 1] = l0
                    j += 2
                    continue
                end = base + size
                k = base + 2
                moved = False
                while k < end:
                    lk = ca[k]
                    if lv[lk] >= 0:          # not false: new watch
                        ca[base + 1] = lk
                        ca[k] = fl
                        wlk = watches[lk ^ 1]
                        wlk.append(c)
                        wlk.append(l0)
                        moved = True
                        break
                    k += 1
                if moved:
                    continue
                wl[j] = c
                wl[j + 1] = l0
                j += 2
                if av < 0:                  # first watch false: conflict
                    while i < n:
                        wl[j] = wl[i]
                        wl[j + 1] = wl[i + 1]
                        i += 2
                        j += 2
                    qhead = nt
                    confl = c
                    break
                lv[l0] = 1                   # unit: enqueue inline
                lv[l0 ^ 1] = -1
                v = l0 >> 1
                phase[v] = (l0 & 1) ^ 1
                level[v] = dl
                reason[v] = c
                trail.append(l0)
                nt += 1
            if j != n:
                del wl[j:]
            if confl >= 0:
                break
        self._qhead = qhead
        self.stats.propagations += props
        return confl

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt clause lits, backtrack level)."""
        ca = self._ca
        seen = self._seen
        levels = self._level
        trail = self._trail
        reason = self._reason
        act = self._activity
        var_inc = self._var_inc
        dl = len(self._trail_lim)
        learnt: list[int] = [0]  # placeholder for the asserting literal
        to_clear: list[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        c = confl
        while True:
            if ca[c + 1]:        # learnt clause (lbd >= 1): bump it
                self._bump_clause(c)
            base = c + 2
            start = base + 1 if p != -1 and ca[base] == p else base
            for k in range(start, base + ca[c]):
                q = ca[k]
                if q == p:
                    # Binary clauses skip slot normalization in the
                    # propagation fast path, so the asserting literal
                    # may sit anywhere in its reason: skip it by value.
                    continue
                v = q >> 1
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    act[v] += var_inc   # bump inline; heap fixed below
                    if levels[v] >= dl:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            index -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            c = reason[v]
        learnt[0] = p ^ 1
        self._minimize(learnt)
        # Compute backtrack level: the second-highest level in the clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_index = 1
            for i in range(2, len(learnt)):
                if levels[learnt[i] >> 1] > levels[learnt[max_index] >> 1]:
                    max_index = i
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            bt_level = levels[learnt[1] >> 1]
        hpos = self._hpos
        rescale = False
        for v in to_clear:
            seen[v] = 0
            if act[v] > 1e100:
                rescale = True
            if hpos[v] >= 0:    # deferred decrease-key for inline bumps
                self._sift_up(hpos[v])
        if rescale:
            for u in range(1, self._nvars + 1):
                act[u] *= 1e-100
            self._var_inc *= 1e-100
        return learnt, bt_level

    def _analyze_final(self, false_lits) -> list[int]:
        """The assumptions that falsify ``false_lits`` (MiniSat's
        ``analyzeFinal``).

        ``false_lits`` are literals the current trail makes false and
        whose falsity *is* the refutation: a conflicting clause's, or
        one failed assumption.  Only called while every decision on the
        trail is an assumption, so one backward walk that resolves each
        marked literal with its reason ends at the assumptions used —
        the marked decisions.  Level-0 literals are facts of the formula
        and blame nobody.  Stops as soon as nothing marked is left, and
        leaves ``_seen`` all-zero as :meth:`_analyze` expects it.
        """
        seen = self._seen
        levels = self._level
        pending = 0
        for q in false_lits:
            v = q >> 1
            if levels[v] > 0 and not seen[v]:
                seen[v] = 1
                pending += 1
        core: list[int] = []
        trail = self._trail
        reason = self._reason
        ca = self._ca
        index = len(trail)
        while pending:
            index -= 1
            p = trail[index]
            v = p >> 1
            if not seen[v]:
                continue
            seen[v] = 0
            pending -= 1
            r = reason[v]
            if r < 0:
                core.append(p)
                continue
            for k in range(r + 2, r + 2 + ca[r]):
                u = ca[k] >> 1
                if u != v and levels[u] > 0 and not seen[u]:
                    seen[u] = 1
                    pending += 1
        return core

    def _minimize(self, learnt: list[int]) -> None:
        """Drop literals implied by the rest of the clause (self-subsumption).

        A literal can be removed if its reason's literals are all already in
        the clause (marked seen).  This is MiniSat's 'basic' minimization.
        """
        ca = self._ca
        seen = self._seen
        levels = self._level
        reason = self._reason
        kept = [learnt[0]]
        for lit in learnt[1:]:
            r = reason[lit >> 1]
            if r < 0:
                kept.append(lit)
                continue
            removable = True
            base = r + 2
            for k in range(base, base + ca[r]):
                q = ca[k]
                v = q >> 1
                if q != lit ^ 1 and not seen[v] and levels[v] > 0:
                    removable = False
                    break
            if not removable:
                kept.append(lit)
        learnt[:] = kept

    def _record_learnt(self, learnt: list[int]) -> None:
        self.stats.learned += 1
        self.stats.learned_literals += len(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], -1)
            return
        levels = self._level
        lbd = len({levels[lit >> 1] for lit in learnt})
        cref = self._alloc(learnt, lbd=max(lbd, 1))
        self._bump_clause(cref)
        self._attach(cref)
        self._learnts.append(cref)
        self._enqueue(learnt[0], cref)

    def _reduce_db(self) -> None:
        """Remove the worse half of learnt clauses (high LBD, low activity).

        Deletion is O(1) per clause — the arena size slot flips negative
        and propagation sweeps drop dead watch entries lazily; no watch
        list is ever scanned here.  The arena is compacted once a third
        of it is dead.
        """
        self.stats.db_reductions += 1
        self._max_learnts *= self._learnt_growth
        ca = self._ca
        cact = self._cact
        reason = self._reason
        locked = {r for r in (reason[v] for v in range(1, self._nvars + 1))
                  if r >= 0}
        learnts = self._learnts
        learnts.sort(key=lambda c: (-ca[c + 1], cact.get(c, 0.0)))
        keep_from = len(learnts) // 2
        kept: list[int] = []
        for i, c in enumerate(learnts):
            if c in locked or ca[c] == 2 or ca[c + 1] <= 2 or i >= keep_from:
                kept.append(c)
            else:
                self._delete(c)
        self._learnts = kept
        if self._wasted * 3 > len(ca):
            self._collect_garbage()

    # ------------------------------------------------------------------
    # Clause arena
    # ------------------------------------------------------------------

    def _alloc(self, lits: list[int], lbd: int) -> int:
        ca = self._ca
        cref = len(ca)
        ca.append(len(lits))
        ca.append(lbd)
        ca.extend(lits)
        return cref

    def _attach(self, cref: int) -> None:
        ca = self._ca
        l0, l1 = ca[cref + 2], ca[cref + 3]
        watches = self._bwatches if ca[cref] == 2 else self._watches
        watches[l0 ^ 1].extend((cref, l1))
        watches[l1 ^ 1].extend((cref, l0))

    def _detach(self, cref: int) -> None:
        """Eagerly remove ``cref`` from its two watch lists and delete it.

        A detach that cannot find its watch entry means the watch lists
        no longer reflect the clause database — corruption that would
        otherwise surface as silently wrong verdicts — so it raises
        :class:`SatError` instead of passing.  (The reduction path never
        calls this: it marks clauses dead in O(1) and lets propagation
        sweeps drop the entries.)
        """
        ca = self._ca
        if ca[cref] < 0:
            raise SatError(
                f"detach of already-deleted clause at {cref}: "
                "watch-list corruption")
        watches = self._bwatches if ca[cref] == 2 else self._watches
        for which in (0, 1):
            lit = ca[cref + 2 + which]
            wl = watches[lit ^ 1]
            for i in range(0, len(wl), 2):
                if wl[i] == cref:
                    wl[i] = wl[-2]
                    wl[i + 1] = wl[-1]
                    del wl[-2:]
                    break
            else:
                raise SatError(
                    f"clause at {cref} missing from the watch list of "
                    f"literal {lit ^ 1}: watch-list corruption")
        self._delete(cref)

    def _delete(self, cref: int) -> None:
        """O(1) deletion: negate the size slot; sweeps drop the watches."""
        ca = self._ca
        size = ca[cref]
        ca[cref] = -size
        self._wasted += size + 2
        self._cact.pop(cref, None)

    def _collect_garbage(self) -> None:
        """Compact the arena: copy live clauses, remap crefs, rebuild
        watches.  Watched literals are preserved verbatim (slots 0/1),
        so the two-watched invariant survives mid-search compaction."""
        old = self._ca
        new: list[int] = []
        mapping: dict[int, int] = {}

        def move(refs: list[int]) -> list[int]:
            out = []
            for c in refs:
                nc = len(new)
                mapping[c] = nc
                out.append(nc)
                new.extend(old[c:c + 2 + old[c]])
            return out

        self._clauses = move(self._clauses)
        self._learnts = move(self._learnts)
        self._cact = {mapping[c]: a for c, a in self._cact.items()}
        reason = self._reason
        for v in range(1, self._nvars + 1):
            r = reason[v]
            if r >= 0:
                reason[v] = mapping[r]
        self._ca = new
        watches = self._watches
        bwatches = self._bwatches
        for wl in watches:
            del wl[:]
        for wl in bwatches:
            del wl[:]
        for c in self._clauses + self._learnts:
            target = bwatches if new[c] == 2 else watches
            target[new[c + 2] ^ 1].extend((c, new[c + 3]))
            target[new[c + 3] ^ 1].extend((c, new[c + 2]))
        self._wasted = 0

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> bool:
        lv = self._lv
        a = lv[lit]
        if a:
            return a > 0
        lv[lit] = 1
        lv[lit ^ 1] = -1
        v = lit >> 1
        self._phase[v] = (lit & 1) ^ 1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)
        return True

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        lv = self._lv
        reason = self._reason
        hpos = self._hpos
        heap = self._heap
        act = self._activity
        trail = self._trail
        for idx in range(len(trail) - 1, bound - 1, -1):
            lit = trail[idx]
            lv[lit] = 0
            lv[lit ^ 1] = 0
            v = lit >> 1
            reason[v] = -1
            if hpos[v] < 0:      # re-insert, sift-up inlined (hot path)
                i = len(heap)
                heap.append(v)
                a = act[v]
                while i > 0:
                    parent = (i - 1) >> 1
                    pv = heap[parent]
                    if act[pv] >= a:
                        break
                    heap[i] = pv
                    hpos[pv] = i
                    i = parent
                heap[i] = v
                hpos[v] = i
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    def _value(self, lit: int) -> int:
        a = self._lv[lit]
        if a == 0:
            return _UNDEF
        return 1 if a > 0 else 0

    # ------------------------------------------------------------------
    # Branching heuristics (indexed VSIDS heap)
    # ------------------------------------------------------------------

    def _pick_branch(self) -> int | None:
        lv = self._lv
        heap = self._heap
        pos = self._hpos
        act = self._activity
        while heap:
            # _heap_pop inlined: most pops discard assigned vars, so
            # the call overhead multiplies.
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            n = len(heap)
            if n:
                a = act[last]
                i = 0
                while True:
                    child = 2 * i + 1
                    if child >= n:
                        break
                    cv = heap[child]
                    right = child + 1
                    if right < n and act[heap[right]] > act[cv]:
                        child = right
                        cv = heap[child]
                    if act[cv] <= a:
                        break
                    heap[i] = cv
                    pos[cv] = i
                    i = child
                heap[i] = last
                pos[last] = i
            if not lv[top << 1]:
                return top << 1 | (self._phase[top] ^ 1)
        return None

    def _heap_insert(self, v: int) -> None:
        pos = self._hpos
        if pos[v] >= 0:
            return
        heap = self._heap
        heap.append(v)
        self._sift_up(len(heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        pos = self._hpos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._hpos, self._activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._hpos, self._activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            cv = heap[child]
            right = child + 1
            if right < n and act[heap[right]] > act[cv]:
                child = right
                cv = heap[child]
            if act[cv] <= a:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _bump_clause(self, cref: int) -> None:
        cact = self._cact
        a = cact.get(cref, 0.0) + self._cla_inc
        cact[cref] = a
        if a > 1e20:
            for c in cact:
                cact[c] *= 1e-20
            self._cla_inc *= 1e-20

    # ------------------------------------------------------------------
    # Restarts / input mapping
    # ------------------------------------------------------------------

    def _luby_limit(self) -> int:
        return self._restart_base * _luby(self.stats.restarts + 1)

    def _from_dimacs(self, d: int) -> int:
        if d == 0:
            raise SatError("literal 0 is not valid")
        v = abs(d)
        if v > self._nvars:
            raise SatError(f"variable {v} was never allocated")
        return _lit(v, negative=d < 0)


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence:
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq
