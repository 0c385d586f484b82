"""Solver facade: satisfiability checking over expression constraints.

:class:`Solver` is the Z3/STP stand-in the tool profiles call.  Each
:meth:`check` builds a fresh SAT instance from the asserted constraints
(plus optional extra assumptions), so the object behaves like an
incremental solver without the bookkeeping.

Budgets are first-class: ``max_conflicts`` and ``max_clauses`` bound
the work per query, and exhausting them raises :class:`SolverError`,
which the evaluation harness classifies as the paper's ``E`` outcome
(abnormal exit / no feedback within the time budget).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from .. import obs, session
from ..errors import SolverError
from .bitblast import BitBlaster
from .expr import Expr, eval_expr, mk_bool_and
from .sat import SatSolver


@dataclass
class CheckResult:
    """Outcome of one satisfiability query."""

    status: str                      # "sat" | "unsat"
    model: dict[str, int] | None = None

    @property
    def sat(self) -> bool:
        return self.status == "sat"


class Solver:
    """Accumulates boolean (width-1) constraints and answers queries."""

    def __init__(self, max_conflicts: int = 100_000, max_clauses: int = 1_500_000,
                 max_nodes: int | None = None):
        self.constraints: list[Expr] = []
        #: Provenance tag per asserted constraint (``(pc, kind)`` from
        #: the concolic engine, or None) — consumed by :func:`unsat_core`.
        self.tags: list = []
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        #: Optional cap on the constraint DAG size; queries over it fail
        #: immediately with a budget error (cheap detection of
        #: crypto-scale formulas before any encoding work).
        self.max_nodes = max_nodes
        self.queries = 0
        # CDCL effort of the most recent query (conflicts/gates/learnt),
        # consumed by the attribution profiler's query telemetry.
        self._last_query_stats: dict[str, int] = {}

    def add(self, expr: Expr, tag=None) -> None:
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        self.constraints.append(expr)
        self.tags.append(tag)

    def extend(self, exprs) -> None:
        for expr in exprs:
            self.add(expr)

    def clone(self) -> "Solver":
        other = Solver(self.max_conflicts, self.max_clauses, self.max_nodes)
        other.constraints = list(self.constraints)
        other.tags = list(self.tags)
        return other

    def tagged(self) -> list:
        """The asserted constraints as ``(tag, expr)`` pairs."""
        return list(zip(self.tags, self.constraints))

    # -- queries -------------------------------------------------------------

    def check(self, extra: list[Expr] | None = None,
              tag=None) -> CheckResult:
        """Check satisfiability of the asserted constraints (+ *extra*).

        *tag* is the ``(pc, kind)`` constraint tag of the guard this
        query decides; when an attribution profiler is installed the
        query's latency and CDCL effort are bucketed under it.

        Raises :class:`SolverError` on budget exhaustion or when a
        constraint needs a theory the bit-blaster lacks (FP, symbolic
        divisors).
        """
        self.queries += 1
        return _observed_check(self, extra, tag, "oneshot")

    def _check(self, extra: list[Expr] | None = None) -> CheckResult:
        self._last_query_stats = {}
        decided, pending = _stage([], self.constraints + list(extra or []),
                                  0, self.max_nodes)
        if decided is not None:
            return decided
        sat = SatSolver(self.max_conflicts, self.max_clauses)
        blaster = BitBlaster(sat)
        try:
            with _encoding():
                for expr in pending:
                    blaster.assert_true(expr)
            model = sat.solve()
        finally:
            self._last_query_stats = report_sat_stats(sat, blaster)
        if model is None:
            return CheckResult("unsat")
        return CheckResult("sat", blaster.extract_model(model))

    def check_with_cache(self, extra: list[Expr], cached_model: dict[str, int] | None
                         ) -> CheckResult:
        """Like :meth:`check`, but first test *cached_model* by evaluation.

        Concolic engines keep the concrete input of the current round
        around; if it already satisfies the new constraint set, no SAT
        query is needed — the standard "concretization cache" trick.
        """
        if cached_model is not None:
            todo = self.constraints + list(extra)
            try:
                if all(eval_expr(e, cached_model) for e in todo):
                    return CheckResult("sat", dict(cached_model))
            except SolverError:
                pass
        return self.check(extra)

    def conjunction(self, extra: list[Expr] | None = None) -> Expr:
        """The asserted constraints as a single boolean expression."""
        return mk_bool_and(*(self.constraints + list(extra or [])))


class IncrementalSolver:
    """Incremental satisfiability over a growing path prefix.

    Keeps one persistent :class:`SatSolver` + :class:`BitBlaster` pair
    alive across queries.  Prefix constraints added with
    :meth:`assert_expr` are Tseitin-encoded exactly once (the blaster's
    cache is keyed by interned-node ``id``, so shared subterms are also
    shared across queries) and asserted as permanent unit clauses.  Each
    :meth:`check` encodes only the *extra* constraints, guards them
    behind a fresh activation literal, and answers via
    ``SatSolver.solve(assumptions=[activation])`` — learnt clauses and
    VSIDS activity carry over from query to query.  After the query the
    activation literal is permanently negated, retiring the extra
    constraints while keeping every clause learnt under them sound.

    Staging is shared with :class:`Solver.check` (:func:`_stage`:
    constant short-circuits, interval presolve, the ``max_nodes``
    guard) and encode errors are sticky, so both solvers answer a query
    the same way; the one-shot solver is the reference in the tests.
    """

    def __init__(self, max_conflicts: int = 100_000, max_clauses: int = 1_500_000,
                 max_nodes: int | None = None):
        self.max_conflicts = max_conflicts
        self.max_clauses = max_clauses
        self.max_nodes = max_nodes
        self.queries = 0
        self._sat: SatSolver | None = None
        self._blaster: BitBlaster | None = None
        #: Non-constant prefix constraints, in assertion order; the
        #: first ``_encoded`` of them are already in the SAT instance.
        self._prefix: list[Expr] = []
        self._prefix_tags: list = []
        #: Constant-false assertions, kept (with their tags) only so
        #: :meth:`tagged` can name them in an unsat core.
        self._const_false: list = []
        self._encoded = 0
        self._prefix_nodes = 0
        self._prefix_false = False
        #: First encode failure over the prefix (fp theory, symbolic
        #: divisor, depth): re-raised verbatim on every later query,
        #: matching the one-shot solver re-hitting it per query.
        self._encode_error: str | None = None
        # Counter snapshot so the observability counters report
        # per-query deltas even though the underlying instance
        # accumulates (advanced by :func:`report_sat_stats`).
        self._sat_seen: dict[str, int] = {}
        self._last_query_stats: dict[str, int] = {}

    # -- prefix ------------------------------------------------------------

    def assert_expr(self, expr: Expr, tag=None) -> None:
        """Permanently assert a width-1 constraint (lazily encoded)."""
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        if expr.is_const:
            if not expr.value:
                self._prefix_false = True
                self._const_false.append((tag, expr))
            return
        self._prefix.append(expr)
        self._prefix_tags.append(tag)
        self._prefix_nodes += expr.size()

    def extend(self, exprs) -> None:
        for expr in exprs:
            self.assert_expr(expr)

    def tagged(self) -> list:
        """The asserted prefix as ``(tag, expr)`` pairs (incl. constants)."""
        return list(self._const_false) + list(zip(self._prefix_tags, self._prefix))

    # -- queries -----------------------------------------------------------

    def check(self, extra: list[Expr] | Expr | None = None,
              tag=None) -> CheckResult:
        """Check the asserted prefix plus *extra* (this query only).

        *tag* is the ``(pc, kind)`` tag of the negated guard, fed to
        the attribution profiler's per-query telemetry when installed.

        Raises :class:`SolverError` exactly where :meth:`Solver.check`
        would: budget exhaustion or an unsupported theory anywhere in
        prefix + extra.
        """
        if isinstance(extra, Expr):
            extra = [extra]
        self.queries += 1
        return _observed_check(self, list(extra or []), tag, "incremental")

    def _check(self, extra: list[Expr]) -> CheckResult:
        self._last_query_stats = {}
        if self._prefix_false:
            return CheckResult("unsat")
        for expr in extra:
            if expr.width != 1:
                raise SolverError("constraints must be width 1")
            if expr.is_const and not expr.value:
                break  # _stage decides unsat here; later widths go unchecked
        decided, pending = _stage(self._prefix, extra, self._prefix_nodes,
                                  self.max_nodes)
        if decided is not None:
            return decided
        obs.count("smt.assumption_queries")
        sat, blaster = self._materialize()
        try:
            with _encoding():
                bits = [blaster.blast(expr)[0] for expr in pending]
            assumptions: list[int] = []
            activation = None
            if bits:
                activation = sat.new_var() * 2
                for lit in bits:
                    sat.add_clause([activation ^ 1, lit])
                assumptions.append(activation)
            model = sat.solve(assumptions)
            if activation is not None:
                # Retire this query's constraints for good; clauses
                # learnt under the activation stay sound (they contain
                # its negation and are now satisfied).
                sat.add_clause([activation ^ 1])
        finally:
            self._last_query_stats = report_sat_stats(
                sat, blaster, since=self._sat_seen)
        if model is None:
            return CheckResult("unsat")
        return CheckResult("sat", blaster.extract_model(model))

    # -- internals ---------------------------------------------------------

    def _materialize(self) -> tuple[SatSolver, BitBlaster]:
        """Encode any still-pending prefix constraints, exactly once."""
        if self._sat is None:
            self._sat = SatSolver(self.max_conflicts, self.max_clauses)
            self._blaster = BitBlaster(self._sat)
        if self._encode_error is not None:
            raise SolverError(self._encode_error)
        obs.count("smt.prefix_reuse", self._encoded)
        while self._encoded < len(self._prefix):
            expr = self._prefix[self._encoded]
            try:
                with _encoding():
                    self._blaster.assert_true(expr)
            except SolverError as err:
                self._encode_error = str(err)
                raise
            self._encoded += 1
        return self._sat, self._blaster


# -- shared query path --------------------------------------------------------

def _stage(prefix: list[Expr], extra: list[Expr], prefix_nodes: int,
           max_nodes: int | None):
    """The staging both solvers run before any SAT work.

    *prefix* holds already-vetted non-constant constraints (*prefix_nodes*
    DAG nodes in total); *extra* is scanned in order, dropping constant
    trues.  Returns ``(result, pending)``: *result* is the verdict when
    a constant false, an empty query or the interval presolve decides
    it (else None), *pending* the non-constant extras still to encode.
    Raises :class:`SolverError` when the query exceeds *max_nodes*.
    """
    pending: list[Expr] = []
    for expr in extra:
        if expr.is_const:
            if not expr.value:
                return CheckResult("unsat"), pending
            continue
        pending.append(expr)
    if not prefix and not pending:
        return CheckResult("sat", {}), pending
    from .intervals import presolve_unsat

    if presolve_unsat(prefix + pending):
        return CheckResult("unsat"), pending
    if max_nodes is not None:
        total = prefix_nodes + sum(e.size() for e in pending)
        if total > max_nodes:
            raise SolverError(
                f"constraint model too large ({total} nodes > {max_nodes})"
            )
    return None, pending


@contextlib.contextmanager
def _encoding():
    """Map the bit-blaster hitting Python's recursion limit to a
    :class:`SolverError`."""
    try:
        yield
    except RecursionError:
        raise SolverError("formula too deep to encode") from None


def _observed_check(solver, extra, tag, mode: str) -> CheckResult:
    """``solver._check(extra)``, timed and reported as one query event
    (:func:`report_query`) when the session has a collector installed."""
    sess = session.current()
    if not sess.observed:
        return solver._check(extra)
    t0 = time.perf_counter()
    status = "error"
    try:
        result = solver._check(extra)
        status = result.status
        return result
    finally:
        report_query(sess, solver, extra, tag, status,
                     time.perf_counter() - t0, mode)


def report_query(sess, solver, extra, tag, status: str, wall_s: float,
                 mode: str) -> None:
    """The one event of a solver query, fed to every collector of
    *sess*: the ``smt.queries``/``smt.<status>`` counters and the
    ``smt.solve_s`` histogram, the profiler's bucket for the query's
    ``(pc, kind)`` *tag*, and the query log (*mode* is ``oneshot`` or
    ``incremental``)."""
    stats = solver._last_query_stats
    rec = sess.recorder
    if rec is not None:
        rec.count("smt.queries")
        rec.count(f"smt.{status}")
        rec.observe("smt.solve_s", wall_s)
    if sess.profiler is not None and tag is not None:
        sess.profiler.record_query(
            tag, wall_s, status, conflicts=stats.get("conflicts", 0),
            gates=stats.get("gates", 0), learnt=stats.get("learnt", 0),
            cell=sess.cell)
    if sess.queries is not None:
        sess.queries.record_check(
            solver.tagged(), extra, tag, status, wall_s, stats, solver=mode,
            budget={"max_conflicts": solver.max_conflicts,
                    "max_clauses": solver.max_clauses,
                    "max_nodes": solver.max_nodes},
            cell=sess.cell)


#: Lifetime :class:`SatSolver` counters flushed as ``smt.<name>``.
_SAT_COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
                "learnt")


def report_sat_stats(sat: SatSolver, blaster: BitBlaster | None = None,
                     since: dict[str, int] | None = None) -> dict[str, int]:
    """Flush one query's SAT search statistics to the recorder.

    Called after every query by :meth:`Solver.check`,
    :meth:`IncrementalSolver.check` and engines that drive a
    :class:`SatSolver` directly (model enumeration); the counters
    accumulate across queries, so ``smt.conflicts`` is the total CDCL
    conflict work of a whole run.  A :class:`SatSolver`'s counters are
    lifetime totals: for an instance that serves several queries pass
    the same *since* dict every time (empty at first) -- it holds the
    counters as of the previous report and is advanced to now, so only
    this query's work is flushed.  Returns the per-query stats so the
    caller can attach them to per-query telemetry.
    """
    now = {key: getattr(sat, key) for key in _SAT_COUNTERS}
    now["gates"] = blaster.gates if blaster is not None else 0
    stats = now
    if since is not None:
        stats = {key: value - since.get(key, 0) for key, value in now.items()}
        since.update(now)
    rec = obs.active()
    if rec is None:
        return stats
    for key in _SAT_COUNTERS:
        rec.count(f"smt.{key}", stats[key])
    rec.observe("smt.clauses", len(sat.clauses))
    if blaster is not None:
        rec.count("smt.gates", stats["gates"])
        rec.observe("smt.gates_per_query", stats["gates"])
    return stats


def solve(constraints: list[Expr], max_conflicts: int = 100_000,
          max_clauses: int = 1_500_000) -> CheckResult:
    """One-shot satisfiability check of *constraints*."""
    solver = Solver(max_conflicts, max_clauses)
    solver.extend(constraints)
    return solver.check()


def unsat_core(tagged, max_conflicts: int = 100_000,
               max_clauses: int = 1_500_000):
    """Minimized unsat core over *tagged* ``(tag, expr)`` constraints.

    Returns the tags of an unsatisfiable subset (deletion-minimized:
    dropping any single member makes it satisfiable), or ``None`` when
    the conjunction is satisfiable.  Assumption-based: each constraint
    is guarded behind its own activation literal and queried via
    ``SatSolver.solve(assumptions=)``, so the deletion loop reuses one
    SAT instance and every clause learnt along the way.

    Raises :class:`SolverError` on budget exhaustion or an
    unencodable theory, like any other query.
    """
    guarded: list = []  # (tag, activation literal)
    sat = SatSolver(max_conflicts, max_clauses)
    blaster = BitBlaster(sat)
    for tag, expr in tagged:
        if expr.width != 1:
            raise SolverError("constraints must be width 1")
        if expr.is_const:
            if not expr.value:
                return [tag]  # constant false is a core by itself
            continue
        activation = sat.new_var() * 2
        try:
            blaster.assert_true(expr, activation)
        except RecursionError:
            raise SolverError("formula too deep to encode") from None
        guarded.append((tag, activation))
    obs.count("prov.core_queries")
    if sat.solve([act for _, act in guarded]) is not None:
        return None
    # Deletion minimization: try dropping each member; keep the drop
    # whenever the rest stays UNSAT.
    core = guarded
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        obs.count("prov.core_queries")
        if sat.solve([act for _, act in trial]) is None:
            core = trial
        else:
            i += 1
    return [tag for tag, _ in core]
