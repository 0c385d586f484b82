"""Evaluation harness: runs tools over the bomb dataset (Section V).

``run_table2`` produces the full 22-bomb x 4-tool outcome matrix and
compares each cell against the paper's reported label; ``run_cell``
evaluates a single (bomb, tool) pair.  Results carry both the observed
outcome and the agreement with the paper, so EXPERIMENTS.md and the
benchmark suite can report paper-vs-measured per cell.

A cell runs one of two ways.  In-process (``run_cell`` without a
timeout; ``run_table2`` with ``jobs`` <= 1 and no timeout), or out of
process through the campaign service's executor
(:func:`repro.service.executor.execute_matrix`): one forked worker per
cell attempt, so a ``--jobs N`` run fans out and a stuck tool under a
timeout maps to ``E`` instead of hanging the harness.  A ``cache`` (a
content-addressed :class:`~repro.service.store.ResultStore`) serves
unchanged cells on both routes and is the session's store for the
run's duration (:mod:`repro.session`), so lift caches and fuzz corpora
persist into it the same way on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs, session
from ..obs import provenance
from ..bombs import TABLE2_BOMB_IDS, TOOL_COLUMNS, all_bombs, get_bomb
from ..bombs.suite import Bomb
from ..errors import ErrorStage
from ..tools.api import ToolReport, get_tool
from .classify import classify, describe_outcome, primary_diagnostic


@dataclass
class CellResult:
    """One (bomb, tool) cell of Table II."""

    bomb_id: str
    tool: str
    outcome: ErrorStage
    expected: str | None
    report: ToolReport
    #: Wall seconds per pipeline stage (trace/lift/extract/solve/replay),
    #: summed over the cell; empty when no recorder was installed.
    timings: dict[str, float] = field(default_factory=dict)
    #: Exclusive wall seconds per stage — each stage's wall minus the
    #: time spent in nested child spans (``solve`` nests inside
    #: ``explore``), so the values sum to at most the cell wall.
    timings_self: dict[str, float] = field(default_factory=dict)
    #: The root-cause diagnostic behind a non-OK label, as text.
    diagnostic: str | None = None
    #: True when the ``E`` label was synthesized by the campaign service
    #: (wall-clock timeout, worker crashed on every retry) rather than
    #: observed from the tool itself.  Such cells depend on the run's
    #: timeout/retry settings and are never written to the result cache.
    infra_failure: bool = False

    @property
    def label(self) -> str:
        return str(self.outcome)

    @property
    def matches_paper(self) -> bool | None:
        if self.expected is None:
            return None
        return self.label == self.expected

    @property
    def diagnosis(self) -> str:
        """Stage-aware one-line reading of the cell (derived, so cached
        cells from older store schemas pick it up on decode)."""
        return describe_outcome(self.outcome, self.diagnostic)

    def to_json(self) -> dict:
        """JSON-serializable summary for ``repro table2 --json``."""
        return {
            "bomb": self.bomb_id,
            "tool": self.tool,
            "outcome": self.label,
            "expected": self.expected,
            "matches_paper": self.matches_paper,
            "elapsed_s": round(self.report.elapsed, 6),
            "timings_s": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "timings_self_s": {k: round(v, 6)
                               for k, v in sorted(self.timings_self.items())},
            "diagnostic": self.diagnostic,
            "diagnosis": self.diagnosis,
        }


@dataclass
class Table2Result:
    """The full evaluation matrix."""

    cells: dict[tuple[str, str], CellResult] = field(default_factory=dict)

    def add(self, cell: CellResult) -> None:
        self.cells[(cell.bomb_id, cell.tool)] = cell

    def row(self, bomb_id: str) -> dict[str, CellResult]:
        return {t: c for (b, t), c in self.cells.items() if b == bomb_id}

    def solved_counts(self) -> dict[str, int]:
        """Solved-bomb count per tool.

        Every tool that appears in the matrix gets an entry, even at
        zero — previously a non-``TOOL_COLUMNS`` tool (e.g. ``rexx``)
        was dropped from the result unless it solved at least one bomb.
        """
        counts = {tool: 0 for tool in TOOL_COLUMNS}
        for (bomb, tool) in self.cells:
            counts.setdefault(tool, 0)
        for (bomb, tool), cell in self.cells.items():
            if cell.outcome is ErrorStage.OK:
                counts[tool] += 1
        return counts

    def solved_by_angr_family(self) -> int:
        """The paper's headline: bombs solved by Angr in either mode."""
        solved = set()
        for (bomb, tool), cell in self.cells.items():
            if tool in ("angrx", "angrx_nolib") and cell.outcome is ErrorStage.OK:
                solved.add(bomb)
        return len(solved)

    def agreement(self) -> tuple[int, int]:
        """(matching cells, total cells with a paper label)."""
        labelled = [c for c in self.cells.values() if c.expected is not None]
        return sum(1 for c in labelled if c.matches_paper), len(labelled)

    def mismatches(self) -> list[CellResult]:
        """Labelled cells whose observed outcome differs from the paper
        (the ``table2 --check`` CI gate), in matrix order."""
        return [cell for _, cell in sorted(self.cells.items())
                if cell.matches_paper is False]

    def to_json(self) -> dict:
        """JSON-serializable form for ``repro table2 --json``."""
        matched, labelled = self.agreement()
        return {
            "cells": [
                cell.to_json()
                for _, cell in sorted(self.cells.items())
            ],
            "solved_counts": self.solved_counts(),
            "agreement": {"matched": matched, "labelled": labelled},
        }


def run_cell(bomb: Bomb, tool_name: str,
             timeout: float | None = None) -> CellResult:
    """Evaluate one (bomb, tool) pair.

    With *timeout* (wall-clock seconds) the cell is a one-cell
    :func:`~repro.service.executor.execute_matrix` with a single
    attempt: an overrun or a worker death is classified ``E`` with a
    ``resource-exhausted`` diagnostic instead of hanging the caller.
    """
    if timeout is not None:
        from ..service.executor import execute_matrix

        result = execute_matrix((bomb.bomb_id,), (tool_name,), jobs=1,
                                timeout=timeout, store=None, retries=0)
        return result.cells[(bomb.bomb_id, tool_name)]
    tool = get_tool(tool_name)
    with obs.span("cell", bomb=bomb.bomb_id, tool=tool_name) as sp, \
            session.cell(bomb.bomb_id, tool_name):
        report = tool.analyze_bomb(bomb)
        if report.solved and report.solution is not None:
            # Re-validate the accepted solution concretely, so every
            # solved cell carries an explicit replay stage (trace-family
            # engines validate inline while tracing and would otherwise
            # show no replay time).
            with obs.span("replay", bomb=bomb.bomb_id, tool=tool_name) as rp:
                confirmed = bomb.triggers(report.solution, report.solution_env)
                rp.set("validated", confirmed)
        outcome = classify(report)
        root = primary_diagnostic(report, outcome, provenance.active())
        sp.set("outcome", str(outcome))
        sp.set("expected", bomb.expected.get(tool_name))
        if root is not None:
            sp.set("diagnostic", str(root))
        timings = dict(sp.stage_totals)
        timings_self = dict(sp.stage_self_totals)
    return CellResult(
        bomb_id=bomb.bomb_id,
        tool=tool_name,
        outcome=outcome,
        expected=bomb.expected.get(tool_name),
        report=report,
        timings=timings,
        timings_self=timings_self,
        diagnostic=str(root) if root is not None else None,
    )


def _print_cell(cell: CellResult) -> None:
    mark = {True: "=", False: "!", None: " "}[cell.matches_paper]
    print(
        f"{cell.bomb_id:20s} {cell.tool:12s} {cell.label:4s} "
        f"(paper {cell.expected or '-':4s}) {mark} "
        f"{cell.report.elapsed:6.1f}s"
    )


def run_table2(
    bomb_ids: tuple[str, ...] = TABLE2_BOMB_IDS,
    tools: tuple[str, ...] = TOOL_COLUMNS,
    verbose: bool = False,
    jobs: int | None = None,
    timeout: float | None = None,
    cache=None,
) -> Table2Result:
    """Run the full (or a sliced) Table II evaluation.

    With *jobs* <= 1 and no *timeout* the cells run serially in this
    process.  Otherwise they run through the campaign service's
    executor (:func:`repro.service.executor.execute_matrix`), one forked
    worker per cell attempt, up to *jobs* at a time; *timeout* caps each
    cell's wall clock, mapping overruns to ``E``.  Both routes produce
    the same outcome matrix.  ``jobs=0`` auto-sizes to the host's usable
    CPUs (:func:`repro.service.fleet.auto_jobs` — the process CPU count
    where the platform reports one, else the scheduling affinity mask,
    else ``os.cpu_count()``).

    *cache* (a :class:`repro.service.ResultStore` or a directory path)
    serves unchanged cells from the content-addressed store and stores
    fresh ones.  The store is the session's only while this call runs,
    so warm reruns also skip lifting (``lift/``) and restore fuzz
    campaigns (``corpus/``), and a later uncached run writes nothing
    into it.
    """
    store = None
    if cache is not None:
        from ..service.store import ResultStore

        store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
    if jobs == 0:
        from ..service.fleet import auto_jobs

        jobs = auto_jobs()
    if (jobs is not None and jobs > 1) or timeout is not None:
        from ..service.executor import execute_matrix

        return execute_matrix(tuple(bomb_ids), tuple(tools), jobs=jobs or 1,
                              timeout=timeout, store=store, verbose=verbose)
    from ..service.fingerprint import cell_key

    result = Table2Result()
    with session.use(store=store):
        for bomb_id in bomb_ids:
            bomb = get_bomb(bomb_id)
            for tool_name in tools:
                key = cell_key(bomb, tool_name) if store is not None else None
                cell = store.get(key, bomb) if store is not None else None
                if cell is None:
                    cell = run_cell(bomb, tool_name)
                    if store is not None:
                        store.put(key, cell)
                result.add(cell)
                if verbose:
                    _print_cell(cell)
    return result


def run_negative_bomb(tools: tuple[str, ...] = TOOL_COLUMNS) -> dict[str, ToolReport]:
    """Section V.C's negative bomb: who reports the impossible as reachable?"""
    bomb = get_bomb("neg_square")
    return {name: get_tool(name).analyze_bomb(bomb) for name in tools}
