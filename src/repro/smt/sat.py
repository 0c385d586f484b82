"""CDCL SAT solver.

A from-scratch conflict-driven clause-learning solver with two-watched
literals, VSIDS-style activities, first-UIP learning and Luby restarts.
It is the engine under the bit-blaster and stands in for MiniSat/STP/Z3
in the paper's tool stacks.

Literal encoding: variable ``v`` (0-based) has positive literal ``2v``
and negative literal ``2v+1``; ``lit ^ 1`` negates.

Decision order.  The next decision is the unassigned variable of
highest activity, ties going to the lowest index, always with negative
polarity.  The order heap is a lazy min-heap of ``(-activity, var)``
entries kept under one invariant: *every unassigned variable has a heap
entry at its current activity* (its "live key", ``_heap_key[var]``).
Bumping an assigned variable only raises its activity; backtracking
pushes an unwound variable only when its live key is missing or out of
date; :meth:`_decide` clears a live key when it pops that entry and
skips every other entry as stale.  Stale entries always carry a lower
activity than the variable's live one, so they can never jump the
queue.  When activities overflow 1e100 they are all scaled by 1e-100
and the heap is rebuilt from the unassigned variables' scaled
activities, so the order stays true VSIDS order across a rescale.

Assignments are kept per literal: ``lit_values[l]`` is 1 when literal
``l`` is true, 0 when it is false and ``UNASSIGNED`` (-1) otherwise, so
a variable's value is ``lit_values[2 * var]`` and the hot loops test a
literal with one index.  Watch lists and reasons hold the clause lists
themselves.  :meth:`_propagate` and :meth:`_analyze` work on local
bindings with enqueueing and bumping inlined.
"""

from __future__ import annotations

import heapq

from ..errors import SolverError

UNASSIGNED = -1

#: ``_heap_key`` value of a variable with no live heap entry (real keys
#: are ``-activity <= 0``).
_NO_KEY = 1.0


def _luby(x: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """One-shot CDCL solver: add clauses, then :meth:`solve`."""

    def __init__(self, max_conflicts: int = 200_000, max_clauses: int = 2_000_000):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.watches: list[list[list[int]]] = []  # lit -> watching clauses
        self.lit_values: list[int] = []     # lit -> 1/0/UNASSIGNED
        self.levels: list[int] = []
        #: var -> clause that implied it (read only while assigned).
        self.reasons: list[list[int] | None] = []
        self.activity: list[float] = []
        self.trail: list[int] = []          # assigned literals in order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        self._var_inc = 1.0
        self._ok = True
        # Lifetime search statistics (across re-invocations of solve),
        # read by the observability layer after each query.
        self.decisions = 0
        self.conflicts = 0
        self.restarts = 0
        self.learnt = 0
        #: Trail literals whose watches were visited by unit propagation.
        self.propagations = 0
        #: Lazy min-heap of (-activity, var); see the module docstring
        #: for the live-key invariant.
        self._order: list[tuple[float, int]] = []
        self._heap_key: list[float] = []    # var -> live key or _NO_KEY
        #: Conflict analysis scratch marks, all zero between conflicts.
        self._seen = bytearray()

    # -- construction -----------------------------------------------------

    def new_var(self) -> int:
        var = self.num_vars
        self.num_vars += 1
        self.lit_values.append(UNASSIGNED)
        self.lit_values.append(UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.watches.append([])
        self.watches.append([])
        heapq.heappush(self._order, (0.0, var))
        self._heap_key.append(0.0)
        self._seen.append(0)
        return var

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause of literals (see module docstring for encoding)."""
        if not self._ok:
            return
        if len(self.clauses) >= self.max_clauses:
            raise SolverError("clause budget exceeded")
        # Deduplicate and detect tautologies.
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if lit ^ 1 in seen:
                return  # tautology
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._ok = False
            return
        self.clauses.append(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    # -- assignment ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        lit_values = self.lit_values
        value = lit_values[lit]
        if value != UNASSIGNED:
            return value == 1
        lit_values[lit] = 1
        lit_values[lit ^ 1] = 0
        var = lit >> 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)
        return True

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns the conflicting clause or None."""
        trail = self.trail
        qhead = start = self.qhead
        lit_values = self.lit_values
        watches = self.watches
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[false_lit]
            # The list only shrinks while it is visited (a new watch is
            # never false_lit, which is false), so its length is tracked
            # in n and watch_list[n] below is its last entry.
            i = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                # Ensure false_lit is at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if lit_values[first] == 1:
                    i += 1
                    continue
                # Find a new literal to watch.
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if lit_values[lit]:  # true or unassigned
                        clause[k] = clause[1]
                        clause[1] = lit
                        watches[lit].append(clause)
                        n -= 1
                        watch_list[i] = watch_list[n]
                        watch_list.pop()
                        break
                else:
                    # Clause is unit or conflicting.
                    if not lit_values[first]:
                        self.propagations += qhead - start
                        self.qhead = len(trail)
                        return clause
                    lit_values[first] = 1
                    lit_values[first ^ 1] = 0
                    var = first >> 1
                    levels[var] = level
                    reasons[var] = clause
                    trail.append(first)
                    i += 1
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis --------------------------------------------------------

    def _rescale(self) -> None:
        """Scale every activity by 1e-100 and rebuild the order heap
        from the unassigned variables' scaled activities."""
        activity = self.activity
        lit_values = self.lit_values
        heap_key = self._heap_key
        order = self._order
        order.clear()
        for v in range(self.num_vars):
            activity[v] *= 1e-100
            if lit_values[2 * v] == UNASSIGNED:
                heap_key[v] = -activity[v]
                order.append((heap_key[v], v))
            else:
                heap_key[v] = _NO_KEY
        heapq.heapify(order)
        self._var_inc *= 1e-100

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        seen = self._seen
        levels = self.levels
        activity = self.activity
        trail = self.trail
        reasons = self.reasons
        var_inc = self._var_inc
        level = len(self.trail_lim)
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        index = len(trail) - 1
        clause = conflict
        while True:
            for q in (clause[1:] if lit != -1 else clause):
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # VSIDS bump; the heap entry is refreshed lazily
                    # when the (assigned) variable is unwound.
                    activity[var] += var_inc
                    if activity[var] > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                    if levels[var] == level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal to resolve on.
            while True:
                lit = trail[index]
                index -= 1
                if seen[lit >> 1]:
                    break
            counter -= 1
            seen[lit >> 1] = 0
            if counter == 0:
                break
            clause = reasons[lit >> 1]
        learnt[0] = lit ^ 1
        for q in learnt:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[learnt[1] >> 1]

    def _backtrack(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        limit = trail_lim[level]
        lit_values = self.lit_values
        activity = self.activity
        heap_key = self._heap_key
        order = self._order
        for lit in trail[limit:]:
            lit_values[lit] = UNASSIGNED
            lit_values[lit ^ 1] = UNASSIGNED
            var = lit >> 1
            key = -activity[var]
            if heap_key[var] != key:
                heap_key[var] = key
                heapq.heappush(order, (key, var))
        del trail[limit:]
        del trail_lim[level:]
        self.qhead = len(trail)

    # -- decisions --------------------------------------------------------------

    def _decide(self) -> int:
        order = self._order
        heap_key = self._heap_key
        lit_values = self.lit_values
        while order:
            key, var = heapq.heappop(order)
            if heap_key[var] == key:
                heap_key[var] = _NO_KEY
                if lit_values[2 * var] == UNASSIGNED:
                    return var * 2 + 1  # default polarity: false
        # No live entry left: by the heap invariant every variable is
        # assigned.
        return -1

    # -- main loop ------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> list[int] | None:
        """Solve; returns a model (var -> 0/1 list) or None if UNSAT.

        Raises :class:`SolverError` when the conflict budget is exhausted
        (counted per call, so a persistent solver gets a fresh budget
        each query).

        The solver may be re-invoked after :meth:`add_clause` calls (e.g.
        blocking clauses for model enumeration); it restarts from the
        root decision level with all learnt clauses retained.

        *assumptions* are literals enqueued as pseudo-decisions (MiniSat
        style: one decision level per assumption, installed before any
        real decision).  A conflict that depends on them yields ``None``
        without poisoning the instance — the next call, under different
        assumptions, sees all learnt clauses and VSIDS activity from
        this one.  On return the solver is backtracked to level 0, so
        clauses may be added and the solver re-queried freely.
        """
        assumptions = list(assumptions or [])
        self._backtrack(0)
        self.qhead = 0  # re-propagate the root trail over any new clauses
        if not self._ok:
            return None
        trail = self.trail
        trail_lim = self.trail_lim
        lit_values = self.lit_values
        conflicts = 0
        restart_i = 1
        restart_budget = 100 * _luby(restart_i)
        since_restart = 0
        if self._propagate() is not None:
            return None
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.conflicts += 1
                since_restart += 1
                if conflicts > self.max_conflicts:
                    raise SolverError(
                        f"conflict budget exceeded ({self.max_conflicts})"
                    )
                if not trail_lim:
                    return None
                learnt, back_level = self._analyze(conflict)
                self.learnt += 1
                # Backtracking below the assumption prefix is fine: the
                # decision loop re-installs the missing assumptions.
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return None
                else:
                    if len(self.clauses) >= self.max_clauses:
                        raise SolverError("clause budget exceeded")
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= 1.05
                continue
            if since_restart >= restart_budget:
                since_restart = 0
                restart_i += 1
                restart_budget = 100 * _luby(restart_i)
                self.restarts += 1
                self._backtrack(0)
                continue
            if len(trail_lim) < len(assumptions):
                lit = assumptions[len(trail_lim)]
                value = lit_values[lit]
                if value == 0:
                    # Assumption contradicts the current (learnt) state:
                    # UNSAT under these assumptions only.
                    self._backtrack(0)
                    return None
                trail_lim.append(len(trail))
                if value == UNASSIGNED:
                    self._enqueue(lit, None)
                # Already-true assumptions still get a (dummy) level so
                # that level index == assumption index stays invariant.
                continue
            lit = self._decide()
            if lit == -1:
                model = [1 if v == 1 else 0 for v in lit_values[::2]]
                self._backtrack(0)
                return model
            self.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(lit, None)
