"""Recorder core: spans, counters, histograms and the module-level hooks.

Design constraints (why the shape is what it is):

* **Zero cost when off.**  Engines call the module-level
  :func:`count`/:func:`observe`/:func:`span` hooks; each is one read of
  the session's recorder slot and a ``None`` check when no recorder is
  installed.  Hot loops (the VM step loop, the SAT search) never call
  these per iteration — they keep local integers and flush once per
  run/query.
* **Deterministic for tests.**  Both clocks are injectable, so span
  timing is exactly reproducible with a fake clock.
* **Sinks see a flat event stream.**  Spans emit one event at exit
  (children before parents, with a ``path`` recording the hierarchy);
  counters and histograms are aggregated in memory and emitted once as
  summary events on :meth:`Recorder.flush`.
"""

from __future__ import annotations

import contextlib
import os
import time
import uuid

from .. import session as _session


class Span:
    """One timed region.  Created via :meth:`Recorder.span`.

    At exit the span knows its wall/CPU duration, the counter deltas
    that occurred inside it, and ``stage_totals`` — wall seconds of
    every descendant span, aggregated by name (the per-cell stage
    timeline the eval harness reads).

    ``wall_s`` is *inclusive* (it contains every nested span), while
    ``self_s`` is the span's *exclusive* self-time: wall minus the wall
    of its direct children.  Summing ``self_s`` over all spans equals
    the real elapsed wall — unlike inclusive figures, where a ``solve``
    nested inside ``explore`` is counted under both names.
    ``stage_self_totals`` aggregates descendant self-times by name.
    """

    __slots__ = ("name", "attrs", "path", "wall_s", "cpu_s", "self_s",
                 "stage_totals", "stage_self_totals",
                 "span_id", "parent_id",
                 "_recorder", "_wall0", "_cpu0", "_counters0", "_child_wall")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.path = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.self_s = 0.0
        self.stage_totals: dict[str, float] = {}
        self.stage_self_totals: dict[str, float] = {}
        self._child_wall = 0.0
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._recorder = recorder

    def set(self, key: str, value) -> None:
        """Attach an attribute to the span (appears in its event)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        rec = self._recorder
        rec._span_seq += 1
        self.span_id = "%x.%d" % (rec.pid, rec._span_seq)
        if rec._stack:
            self.path = rec._stack[-1].path + "/" + self.name
            self.parent_id = rec._stack[-1].span_id
        else:
            # Top-level span: parent is whatever span id was threaded in
            # from a parent process (cross-process trace stitching).
            self.parent_id = rec.parent_span_id
        rec._stack.append(self)
        self._counters0 = dict(rec.counters)
        self._wall0 = rec._wall_clock()
        self._cpu0 = rec._cpu_clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._recorder
        self.wall_s = rec._wall_clock() - self._wall0
        self.cpu_s = rec._cpu_clock() - self._cpu0
        self.self_s = max(0.0, self.wall_s - self._child_wall)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        rec._stack.pop()
        if rec._stack:
            rec._stack[-1]._child_wall += self.wall_s
        # Every ancestor accumulates this span's wall time under its
        # name, so an enclosing "cell" span ends with a flat timeline
        # of all the stages that ran inside it.
        for ancestor in rec._stack:
            totals = ancestor.stage_totals
            totals[self.name] = totals.get(self.name, 0.0) + self.wall_s
            selfs = ancestor.stage_self_totals
            selfs[self.name] = selfs.get(self.name, 0.0) + self.self_s
        deltas = {
            name: value - self._counters0.get(name, 0)
            for name, value in rec.counters.items()
            if value != self._counters0.get(name, 0)
        }
        rec._record_span(self, deltas)
        return False


class _NullSpan:
    """Reentrant no-op span used when no recorder is installed."""

    __slots__ = ()
    wall_s = 0.0
    cpu_s = 0.0
    self_s = 0.0
    path = ""
    name = ""

    @property
    def stage_totals(self) -> dict:
        return {}

    @property
    def stage_self_totals(self) -> dict:
        return {}

    @property
    def attrs(self) -> dict:
        return {}

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: Fixed bucket bounds shared by every histogram.  Decades alone blur
#: the band where solver queries actually live (the bulk of ``smt.solve_s``
#: lands between 10µs and 1ms), so the sub-millisecond decades get 1-2.5-5
#: subdivisions; 1ms up stays decade-spaced.  Fixed bounds keep streams
#: from different processes mergeable by key.
BUCKET_BOUNDS: tuple[float, ...] = (
    1e-06, 2.5e-06, 5e-06, 1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005,
) + tuple(10.0 ** e for e in range(-3, 7))


def bucket_counts(values) -> dict[str, int]:
    """Non-cumulative counts per bucket, keyed by upper bound
    (``"+Inf"`` for overflow).  JSON-safe and mergeable by key."""
    counts: dict[str, int] = {}
    for value in values:
        for bound in BUCKET_BOUNDS:
            if value <= bound:
                key = repr(bound)
                break
        else:
            key = "+Inf"
        counts[key] = counts.get(key, 0) + 1
    return counts


class Recorder:
    """Aggregates counters/histograms/span stats and feeds sinks.

    *sinks* is an iterable of objects with ``emit(event: dict)`` and
    ``close()``; the recorder itself keeps the in-memory aggregate, so
    a sink-less recorder is a pure aggregator.
    """

    def __init__(self, sinks=(), wall_clock=time.perf_counter,
                 cpu_clock=time.process_time, hist_values: bool = False,
                 trace_id: str | None = None,
                 parent_span_id: str | None = None):
        self.sinks = list(sinks)
        self.counters: dict[str, int] = {}
        self.hists: dict[str, list[float]] = {}
        self.span_stats: dict[str, dict[str, float]] = {}
        self._stack: list[Span] = []
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock
        self._closed = False
        #: One id per logical run.  A worker recorder is constructed with
        #: the parent's trace id so every span in a fanned-out table2 run
        #: belongs to a single trace; a fresh recorder mints its own.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: Span id in the *parent process* that top-level spans of this
        #: recorder hang under (None for the root recorder).
        self.parent_span_id = parent_span_id
        self.pid = os.getpid()
        self._span_seq = 0
        #: Include raw observations in flushed ``hist`` events, so a
        #: parent recorder can :meth:`absorb` the stream exactly (the
        #: summary alone cannot be merged losslessly).  Off by default —
        #: it grows the event stream by one float per observation.
        self.hist_values = hist_values

    # -- instrumentation points ------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        self.hists.setdefault(name, []).append(value)

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- internals --------------------------------------------------------

    def _record_span(self, span: Span, counter_deltas: dict[str, int]) -> None:
        stat = self.span_stats.setdefault(
            span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0,
                        "self_s": 0.0})
        stat["count"] += 1
        stat["wall_s"] += span.wall_s
        stat["cpu_s"] += span.cpu_s
        stat["self_s"] += span.self_s
        if self.sinks:
            event = {
                "t": "span",
                "name": span.name,
                "path": span.path,
                "wall_s": round(span.wall_s, 9),
                "cpu_s": round(span.cpu_s, 9),
                "self_s": round(span.self_s, 9),
                # perf_counter is CLOCK_MONOTONIC on Linux: comparable
                # across forked workers, so a parent can lay worker
                # spans on its own timeline when building a trace view.
                "ts": round(span._wall0, 7),
                "span_id": span.span_id,
                "trace": self.trace_id,
                "pid": self.pid,
            }
            if span.parent_id:
                event["parent_id"] = span.parent_id
            if span.attrs:
                event["attrs"] = span.attrs
            if counter_deltas:
                event["counters"] = counter_deltas
            self.emit(event)

    # -- reading ----------------------------------------------------------

    def current_span_id(self) -> str | None:
        """Id of the innermost open span (for threading to workers)."""
        if self._stack:
            return self._stack[-1].span_id
        return self.parent_span_id

    @staticmethod
    def _hist_summary(values: list[float]) -> dict[str, float]:
        ordered = sorted(values)
        n = len(ordered)

        def pct(q: float) -> float:
            return ordered[min(n - 1, int(q * n))]

        return {
            "count": n,
            "total": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / n,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "buckets": bucket_counts(ordered),
        }

    def snapshot(self) -> dict:
        """The in-memory aggregate as one plain dict."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: self._hist_summary(values)
                for name, values in self.hists.items()
            },
            "spans": {
                name: dict(stat) for name, stat in self.span_stats.items()
            },
        }

    # -- merging -----------------------------------------------------------

    def absorb(self, events: list[dict]) -> None:
        """Merge another recorder's flushed event stream into this one.

        The parallel evaluation harness records each worker process to
        its own JSONL stream and folds them back into the session
        recorder with this method: span events update ``span_stats``
        and are re-emitted verbatim to this recorder's sinks (so a
        ``--metrics-out`` file still carries every per-cell event);
        ``counter`` summaries add into the counters; ``hist`` events
        replay their raw ``values`` into the histograms (streams from a
        recorder without ``hist_values`` merge counters and spans only).
        """
        for event in events:
            kind = event.get("t")
            if kind == "span":
                stat = self.span_stats.setdefault(
                    event["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                    "self_s": 0.0})
                stat["count"] += 1
                stat["wall_s"] += event.get("wall_s", 0.0)
                stat["cpu_s"] += event.get("cpu_s", 0.0)
                # Streams from recorders predating exclusive self-time
                # carry no self_s; treating the span as childless (self
                # == wall) keeps the merge lossless either way.
                stat["self_s"] += event.get("self_s", event.get("wall_s", 0.0))
                self.emit(event)
            elif kind == "counter":
                self.count(event["name"], event["value"])
            elif kind == "hist":
                for value in event.get("values", ()):
                    self.observe(event["name"], value)
            elif kind == "prof":
                # Worker profiler buckets.  Merge into this process's
                # profiler when one is installed (it re-emits merged
                # totals on its own flush); otherwise pass them through
                # so the stream stays lossless.
                from . import profile as _profile
                prof = _profile.active()
                if prof is not None:
                    prof.absorb_event(event)
                else:
                    self.emit(event)

    def abort_open_spans(self, reason: str = "aborted") -> None:
        """Flush every still-open span with an ``aborted`` attribute.

        Called from a worker's SIGTERM handler so that a killed or
        timed-out cell still contributes its partial spans to the trace
        instead of silently vanishing.  Innermost spans flush first,
        preserving the children-before-parents stream invariant.
        """
        now_wall = self._wall_clock()
        now_cpu = self._cpu_clock()
        while self._stack:
            span = self._stack[-1]
            span.wall_s = now_wall - span._wall0
            span.cpu_s = now_cpu - span._cpu0
            span.self_s = max(0.0, span.wall_s - span._child_wall)
            span.attrs["aborted"] = reason
            self._stack.pop()
            if self._stack:
                self._stack[-1]._child_wall += span.wall_s
            for ancestor in self._stack:
                totals = ancestor.stage_totals
                totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
                selfs = ancestor.stage_self_totals
                selfs[span.name] = selfs.get(span.name, 0.0) + span.self_s
            self._record_span(span, {})

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Emit counter/histogram summary events to the sinks."""
        if not self.sinks:
            return
        for name in sorted(self.counters):
            self.emit({"t": "counter", "name": name,
                       "value": self.counters[name]})
        for name in sorted(self.hists):
            event = {"t": "hist", "name": name,
                     **self._hist_summary(self.hists[name])}
            if self.hist_values:
                event["values"] = list(self.hists[name])
            self.emit(event)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        for sink in self.sinks:
            sink.close()


# -- process-wide scoping ---------------------------------------------------
#
# The installed recorder is a slot of the current instrumentation session
# (:mod:`repro.session`); the hooks below read it directly.

def active() -> Recorder | None:
    """The currently installed recorder, or None when observability is off."""
    return _session._current.recorder


@contextlib.contextmanager
def recording(recorder: Recorder, close: bool = True):
    """``with recording(rec):`` — install *rec* for the block, then
    restore the previous recorder and (with *close*) close *rec*."""
    with _session.use(recorder=recorder, close=close):
        yield recorder


# -- module-level hooks (the cheap always-callable API) ---------------------

def count(name: str, n: int = 1) -> None:
    rec = _session._current.recorder
    if rec is not None:
        rec.count(name, n)


def observe(name: str, value: float) -> None:
    rec = _session._current.recorder
    if rec is not None:
        rec.observe(name, value)


def span(name: str, **attrs):
    rec = _session._current.recorder
    if rec is None:
        return NULL_SPAN
    return rec.span(name, **attrs)


def trace_context() -> tuple[str | None, str | None]:
    """(trace id, innermost open span id) to thread into a forked
    worker, or ``(None, None)`` when observability is off."""
    rec = _session._current.recorder
    if rec is None:
        return (None, None)
    return (rec.trace_id, rec.current_span_id())
