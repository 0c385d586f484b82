"""Per-layer ledger: spans recorded from outside the program.

A traced pass patches a fixed list of coarse public entry points (one
or two per module) with wrappers that keep a span stack.  Each span
records its name, start, end, parent and workload; a span's self time
is its duration minus the time its child spans cover.  Work counts come
from return values and public attributes read around the call.  The
program itself is not changed: :func:`tracing` restores every patched
attribute on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import COLUMNS


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    workload: str
    end: float = 0.0
    child_s: float = 0.0
    #: Nested inside a span of the same name (counted once, by the outer).
    nested: bool = False
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Ledger:
    """Spans of one traced pass, kept in memory until export."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.id if parent else None, self.workload,
                    nested=any(s.name == name for s in self._stack))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, (popped.name, span.name)
        if self._stack:
            self._stack[-1].child_s += span.duration

    # -- export ------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "workload": s.workload,
                 "self_s": s.self_s, "counts": s.counts}
                for s in self.spans]

    def to_chrome(self) -> dict:
        """Chrome trace events (``ph: X``), loadable by Perfetto."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                   "ts": round((s.start - t0) * 1e6, 3),
                   "dur": round(s.duration * 1e6, 3), "pid": 1, "tid": 1,
                   "args": {"workload": s.workload, "parent": s.parent,
                            "self_us": round(s.self_s * 1e6, 3),
                            **s.counts}}
                  for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, stem: str) -> list[str]:
        """Write ``<stem>.spans.json`` and ``<stem>.chrome.json``."""
        paths = [f"{stem}.spans.json", f"{stem}.chrome.json"]
        for path, doc in zip(paths, (self.to_json(), self.to_chrome())):
            with open(path, "w", encoding="utf-8") as fp:
                json.dump(doc, fp, separators=(",", ":"))
        return paths


# -- entry points ------------------------------------------------------------

def _sat_counters(sat) -> tuple[int, int, int, int]:
    return sat.conflicts, sat.decisions, sat.restarts, sat.learnt


def _after_search(span, args, result, before):
    after = _sat_counters(args[0])
    for key, a, b in zip(("conflicts", "decisions", "restarts", "learnt"),
                         after, before):
        span.counts[key] = a - b


def _after_encode(span, args, result, before):
    span.counts["gates"] = args[0].gates - before


def _after_presolve(span, args, result, before):
    span.counts["unsat"] = int(bool(result))


def _after_explore(span, args, result, before):
    span.counts["steps"] = result.steps
    span.counts["states"] = result.states_explored


def _after_vm_run(span, args, result, before):
    span.counts["steps"] = result.steps


def _after_concolic(span, args, result, before):
    span.counts["rounds"] = result.rounds


def _after_analyze(span, args, result, before):
    span.counts["column"] = args[0].name


def _after_store_get(span, args, result, before):
    span.counts["hit"] = int(result is not None)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public function: ``owner.attr`` recorded as *span*."""

    module: str
    owner: str | None          # class name, or None for a module function
    attr: str
    span: str
    before: object = None      # (self_obj) -> state, read before the call
    after: object = None       # (span, args, result, state) -> None


ENTRY_POINTS = (
    EntryPoint("repro.smt.sat", "SatSolver", "solve", "smt.search",
               before=_sat_counters, after=_after_search),
    EntryPoint("repro.smt.bitblast", "BitBlaster", "assert_true", "smt.encode",
               before=lambda bb: bb.gates, after=_after_encode),
    # ``blast`` is also called directly by the incremental solver and by
    # model enumeration; assert_true nests it, so it counts once.
    EntryPoint("repro.smt.bitblast", "BitBlaster", "blast", "smt.encode",
               before=lambda bb: bb.gates, after=_after_encode),
    EntryPoint("repro.smt.intervals", None, "presolve_unsat", "smt.presolve",
               after=_after_presolve),
    EntryPoint("repro.smt.solver", "Solver", "check", "smt.check"),
    EntryPoint("repro.smt.solver", "IncrementalSolver", "check", "smt.check"),
    EntryPoint("repro.symex.explorer", "AngrEngine", "explore",
               "symex.explore", after=_after_explore),
    EntryPoint("repro.vm.machine", "Machine", "run", "vm.run",
               after=_after_vm_run),
    # The name the concolic engine looks up at call time.
    EntryPoint("repro.concolic.engine", None, "record_trace", "trace.record"),
    EntryPoint("repro.concolic.replay", "TraceReplayer", "replay",
               "concolic.replay"),
    EntryPoint("repro.concolic.engine", "ConcolicEngine", "run",
               "concolic.run", after=_after_concolic),
    EntryPoint("repro.fuzz.engine", "CoverageFuzzer", "execute",
               "fuzz.execute"),
    EntryPoint("repro.fuzz.engine", "CoverageFuzzer", "campaign",
               "fuzz.campaign"),
    EntryPoint("repro.bombs.suite", "Bomb", "triggers", "bombs.triggers"),
    EntryPoint("repro.tools.api", "Tool", "analyze_bomb", "tools.analyze",
               after=_after_analyze),
    EntryPoint("repro.service.store", "ResultStore", "get", "service.store_get",
               after=_after_store_get),
    EntryPoint("repro.service.store", "ResultStore", "put",
               "service.store_put"),
)


def _target(entry: EntryPoint):
    module = importlib.import_module(entry.module)
    return getattr(module, entry.owner) if entry.owner else module


def _wrap(ledger: Ledger, entry: EntryPoint, fn):
    before, after = entry.before, entry.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args[0]) if before is not None else None
        span = ledger.enter(entry.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            ledger.exit(span)
            raise
        ledger.exit(span)
        if after is not None:
            after(span, args, result, state)
        return result

    return wrapper


@contextmanager
def tracing(ledger: Ledger):
    """Patch every entry point for the duration of the block."""
    saved = []
    try:
        for entry in ENTRY_POINTS:
            target = _target(entry)
            original = target.__dict__[entry.attr]
            saved.append((target, entry.attr, original))
            setattr(target, entry.attr, _wrap(ledger, entry, original))
        yield ledger
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def patched_attributes() -> list[tuple[object, str, object]]:
    """(owner, attribute, current value) of every entry point."""
    out = []
    for entry in ENTRY_POINTS:
        target = _target(entry)
        out.append((target, entry.attr, target.__dict__[entry.attr]))
    return out


# -- per-layer metrics -------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    *counters* is an ``obs.Recorder`` snapshot's counters, used where no
    public value carries the count (the ``ir`` layer).
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    check_walls: list[float] = []
    check_errors = 0
    analyze_s = {column: 0.0 for column in COLUMNS}
    for span in ledger.spans:
        self_s[span.name] += span.self_s
        if span.nested:
            continue
        calls[span.name] += 1
        for key, value in span.counts.items():
            if key != "column":
                counts[f"{span.name}.{key}"] += value
        if span.name == "smt.check":
            check_walls.append(span.duration)
            check_errors += span.error
        elif span.name == "tools.analyze":
            analyze_s[span.counts["column"]] += span.duration
    execute_incl = sum(s.duration for s in ledger.spans
                       if s.name == "fuzz.execute" and not s.nested)
    sb_hits = counters.get("cache.superblock_hits", 0)
    sb_misses = counters.get("cache.superblock_misses", 0)
    metrics = {
        "smt.search_calls": calls["smt.search"],
        "smt.search_s": self_s["smt.search"],
        "smt.conflicts": counts["smt.search.conflicts"],
        "smt.decisions": counts["smt.search.decisions"],
        "smt.restarts": counts["smt.search.restarts"],
        "smt.learnt": counts["smt.search.learnt"],
        "smt.conflicts_per_s": _ratio(counts["smt.search.conflicts"],
                                      self_s["smt.search"]),
        "smt.encode_calls": calls["smt.encode"],
        "smt.encode_s": self_s["smt.encode"],
        "smt.gates": counts["smt.encode.gates"],
        "smt.gates_per_s": _ratio(counts["smt.encode.gates"],
                                  self_s["smt.encode"]),
        "smt.presolve_calls": calls["smt.presolve"],
        "smt.presolve_s": self_s["smt.presolve"],
        "smt.presolve_unsat_frac": _ratio(counts["smt.presolve.unsat"],
                                          calls["smt.presolve"]),
        "smt.queries": calls["smt.check"],
        "smt.check_self_s": self_s["smt.check"],
        "smt.check_p50_s": statistics.median(check_walls) if check_walls
        else 0.0,
        "smt.check_error_frac": _ratio(check_errors, calls["smt.check"]),
        "symex.explores": calls["symex.explore"],
        "symex.explore_self_s": self_s["symex.explore"],
        "symex.steps": counts["symex.explore.steps"],
        "symex.states": counts["symex.explore.states"],
        "symex.steps_per_s": _ratio(counts["symex.explore.steps"],
                                    self_s["symex.explore"]),
        "vm.runs": calls["vm.run"],
        "vm.steps": counts["vm.run.steps"],
        "vm.run_s": self_s["vm.run"],
        "vm.steps_per_s": _ratio(counts["vm.run.steps"], self_s["vm.run"]),
        "trace.records": calls["trace.record"],
        "trace.record_s": self_s["trace.record"],
        "concolic.replays": calls["concolic.replay"],
        "concolic.replay_s": self_s["concolic.replay"],
        "concolic.rounds": counts["concolic.run.rounds"],
        "concolic.run_self_s": self_s["concolic.run"],
        "ir.lift_instructions": counters.get("lift.instructions", 0),
        "ir.superblock_hit_frac": _ratio(sb_hits, sb_hits + sb_misses),
        "fuzz.execs": calls["fuzz.execute"],
        "fuzz.execute_self_s": self_s["fuzz.execute"],
        "fuzz.execs_per_s": _ratio(calls["fuzz.execute"], execute_incl),
        "fuzz.campaigns": calls["fuzz.campaign"],
        "fuzz.campaign_self_s": self_s["fuzz.campaign"],
        "bombs.triggers": calls["bombs.triggers"],
        "bombs.triggers_s": self_s["bombs.triggers"],
        "tools.analyze_self_s": self_s["tools.analyze"],
        "service.store_gets": calls["service.store_get"],
        "service.store_hits": counts["service.store_get.hit"],
        "service.store_get_s": self_s["service.store_get"],
        "service.store_puts": calls["service.store_put"],
        "service.store_put_s": self_s["service.store_put"],
    }
    for column, seconds in analyze_s.items():
        metrics[f"tools.analyze_s.{column}"] = seconds
    return metrics


def attributed_s(ledger: Ledger) -> float:
    """Seconds of the pass covered by a named layer's self time."""
    return sum(s.self_s for s in ledger.spans)
