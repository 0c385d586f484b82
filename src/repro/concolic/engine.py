"""The concolic execution driver (the paper's Figure 1, vertically).

Rounds of: concrete execution under the tracer -> symbolic replay ->
branch negation -> constraint solving -> new test case, until the bomb
fires or budgets are exhausted.  This is the generational-search loop
BAP- and Triton-style tools implement around their trace pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..obs.provenance import CoreMember
from ..binfmt import Image
from ..errors import DiagnosticKind, DiagnosticLog, SolverError
from ..smt import IncrementalSolver
from ..smt.solver import unsat_core
from ..trace.record import Trace
from ..trace.tracer import record_trace
from ..vm import Environment
from .policy import ToolPolicy
from .replay import ReplayResult, TraceReplayer


@dataclass
class ConcolicReport:
    """Outcome of a concolic analysis run on one binary."""

    tool: str
    solved: bool = False
    solution: list[bytes] | None = None
    claimed_inputs: list[list[bytes]] = field(default_factory=list)
    rounds: int = 0
    queries: int = 0
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    first_replay: ReplayResult | None = None
    aborted: str | None = None
    constraints_seen: int = 0


class ConcolicEngine:
    """Trace-based concolic executor parameterized by a tool policy."""

    def __init__(self, policy: ToolPolicy):
        self.policy = policy

    def run(self, image: Image, seed_argv: list[bytes],
            env: Environment | None = None,
            argv0: bytes = b"prog") -> ConcolicReport:
        """Analyze *image* starting from *seed_argv* (argv[1:]).

        Success means a concrete execution actually fired the bomb — the
        engine never claims reachability it has not replayed.
        """
        import time as _time

        policy = self.policy
        report = ConcolicReport(tool=policy.name, diagnostics=DiagnosticLog())
        queue: list[list[bytes]] = [list(seed_argv)]
        tried: set[tuple[bytes, ...]] = set()
        negated: set[tuple[int, int]] = set()
        deadline = _time.monotonic() + policy.time_limit

        while queue and report.rounds < policy.rounds:
            if _time.monotonic() > deadline:
                report.diagnostics.emit(
                    DiagnosticKind.RESOURCE_EXHAUSTED,
                    f"no result within the {policy.time_limit:.0f}s budget",
                )
                report.aborted = "timeout"
                return report
            argv_tail = queue.pop()  # depth-first: pursue the newest refinement
            key = tuple(argv_tail)
            if key in tried:
                continue
            tried.add(key)
            report.rounds += 1
            obs.count("concolic.rounds")
            if report.rounds > 1:
                # Re-executing a solver-derived input from scratch is
                # this pipeline's checkpoint restore.
                obs.count("concolic.checkpoint_restores")

            with obs.span("trace", round=report.rounds, tool=policy.name):
                trace = record_trace(
                    image, [argv0] + argv_tail, env,
                    max_steps=policy.max_trace_steps,
                    max_events=policy.max_trace_events,
                )
            if trace.bomb_triggered:
                report.solved = True
                report.solution = argv_tail
                report.claimed_inputs.append(argv_tail)
                return report

            replayer = TraceReplayer(image, policy, report.diagnostics)
            replay = replayer.replay(trace)
            if report.first_replay is None:
                report.first_replay = replay
            report.constraints_seen += len(replay.constraints)
            if replay.aborted:
                report.aborted = replay.aborted
                return report

            try:
                self._negate_and_enqueue(replay, report, queue, tried, negated)
            except SolverError as err:
                report.diagnostics.emit(
                    DiagnosticKind.RESOURCE_EXHAUSTED, str(err)
                )
                report.aborted = f"solver: {err}"
                return report
            if report.queries >= policy.max_queries:
                break

        self._final_diagnostics(report)
        return report

    # -- internals -----------------------------------------------------------

    def _negate_and_enqueue(self, replay: ReplayResult, report: ConcolicReport,
                            queue: list[list[bytes]],
                            tried: set[tuple[bytes, ...]],
                            negated: set[tuple[int, int]]) -> None:
        policy = self.policy
        constraints = replay.constraints
        seed_model = self._seed_model(replay)
        prefix_ids: list[int] = []
        # One shared incremental solver per replay: the path prefix is
        # encoded once and every negation is an assumption query against
        # it, instead of re-bit-blasting the whole prefix per negation.
        shared = IncrementalSolver(policy.solver_conflicts,
                                   policy.solver_clauses, policy.solver_nodes)
        for i, target in enumerate(constraints):
            if report.queries >= policy.max_queries:
                return
            negation = target.negated()
            do_query = not negation.is_const
            if do_query:
                # Dedup per (path prefix, negated branch): the same branch
                # may be profitably re-negated under a different prefix —
                # that is how multi-byte triggers assemble.
                sig = (target.pc, id(negation), hash(tuple(prefix_ids)))
                if sig in negated:
                    do_query = False
                else:
                    negated.add(sig)
            prefix_ids.append(id(target.expr))
            if do_query:
                report.queries += 1
                obs.count("concolic.branches_negated")
                obs.observe("concolic.constraint_nodes",
                            sum(c.expr.size() for c in constraints[:i])
                            + negation.size())
                try:
                    with obs.span("solve", pc=target.pc, tool=policy.name):
                        outcome = shared.check(
                            negation, tag=(target.pc, "negation"))
                except SolverError as err:
                    if "fp theory" in str(err) or "divisor" in str(err):
                        report.diagnostics.emit(
                            DiagnosticKind.UNSUPPORTED_THEORY, str(err),
                            target.pc,
                        )
                        outcome = None
                    else:
                        raise
                if (outcome is not None and not outcome.sat
                        and replay.provenance is not None):
                    self._explain_unsat(replay, constraints[:i], target,
                                        negation)
                if outcome is not None and outcome.sat:
                    candidate = self._rebuild_argv(replay, outcome.model,
                                                   seed_model)
                    if candidate is not None and tuple(candidate) not in tried:
                        obs.count("concolic.testcases_enqueued")
                        queue.append(candidate)
            # The constraint joins the shared prefix for all later
            # negations on this path.
            shared.assert_expr(target.expr, (target.pc, target.kind))

    def _explain_unsat(self, replay: ReplayResult, prefix, target,
                       negation) -> None:
        """Forensics for one refused negation: a minimized unsat core.

        Runs an out-of-band assumption-based query tagging each prefix
        constraint with its branch PC, so the diagnosis can name the
        guard that pins the branch (only when a provenance collector is
        active — the normal path never pays for this).
        """
        tagged = [((c.pc, c.kind), c.expr) for c in prefix]
        tagged.append(((target.pc, "negation"), negation))
        try:
            core = unsat_core(tagged, self.policy.solver_conflicts,
                              self.policy.solver_clauses)
        except SolverError:
            return  # budget-bound forensics: no core is acceptable
        if not core:
            return
        by_tag = {(c.pc, c.kind): c.expr for c in prefix}
        by_tag[(target.pc, "negation")] = negation
        members = [CoreMember(pc, kind, repr(by_tag[(pc, kind)]))
                   for pc, kind in core]
        replay.provenance.record_core(target.pc, members)

    def _seed_model(self, replay: ReplayResult) -> dict[str, int]:
        model = {}
        for name, (k, i) in replay.var_layout.items():
            arg = replay.seed_argv[k] if k < len(replay.seed_argv) else b""
            model[name] = arg[i] if i < len(arg) else 0
        return model

    def _rebuild_argv(self, replay: ReplayResult, model: dict[str, int],
                      seed_model: dict[str, int]) -> list[bytes] | None:
        """Construct a new argv tail from a solver model.

        Unconstrained bytes keep their seed values — the concolic
        convention that the new input differs from the seed only where
        the model demands.
        """
        seed_tail = replay.seed_argv[1:]
        by_arg: dict[int, dict[int, int]] = {}
        for name, (k, i) in replay.var_layout.items():
            value = model.get(name, seed_model.get(name, 0))
            by_arg.setdefault(k, {})[i] = value & 0xFF
        out: list[bytes] = []
        for k, seed in enumerate(seed_tail, start=1):
            overrides = by_arg.get(k, {})
            length = max(len(seed), max(overrides, default=-1) + 1)
            raw = bytearray(seed.ljust(length, b"\0"))
            for i, value in overrides.items():
                if i < len(raw):
                    raw[i] = value
            nul = raw.find(b"\0")
            if nul >= 0:
                raw = raw[:nul]
            out.append(bytes(raw))
        return out

    def _final_diagnostics(self, report: ConcolicReport) -> None:
        """Declaration-stage fallback: nothing symbolic ever reached a branch."""
        if report.constraints_seen == 0 and not any(
            d.kind is not DiagnosticKind.CONCRETE_LENGTH
            for d in report.diagnostics
        ):
            report.diagnostics.emit(
                DiagnosticKind.NO_SYMBOLIC_SOURCE,
                "no branch condition ever depended on a declared symbolic input",
            )


def analyze(image: Image, policy: ToolPolicy, seed_argv: list[bytes],
            env: Environment | None = None) -> ConcolicReport:
    """Convenience wrapper around :class:`ConcolicEngine`."""
    return ConcolicEngine(policy).run(image, seed_argv, env)
