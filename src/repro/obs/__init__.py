"""Structured tracing & metrics for the whole pipeline.

A dependency-free instrumentation layer: hierarchical spans with
wall/CPU timing, named counters and histograms, and pluggable sinks
(in-memory aggregation plus a JSONL event stream).  The recorder, the
attribution :class:`Profiler` and the :class:`ProvenanceCollector` are
slots of the one instrumentation session, installed together with
:func:`repro.session.use` (:func:`recording` is its recorder-only
shorthand); when none is installed every hook degrades to a near-free
no-op, so the engines stay import-cheap and fast with observability
off.

The metric names form the measurement substrate for the paper's
artifacts (see the README glossary): ``taint.instructions_tainted`` is
Figure 3's tainted-instruction count, the ``trace``/``lift``/
``extract``/``solve``/``replay`` spans are the per-cell stage timeline
behind each Table II label, and ``smt.*`` exposes the CDCL core.
"""

from .core import (
    NULL_SPAN,
    Recorder,
    Span,
    active,
    count,
    observe,
    recording,
    span,
    trace_context,
)
from .export import prometheus_text, render_profile, self_time_profile
from .profile import Profiler
from .provenance import ProvenanceCollector
from .sinks import JsonlSink, MemorySink
from .stats import Aggregate, aggregate_events, read_events, render_stats
from .traceviz import (
    chrome_trace,
    collapsed_stacks,
    hotspots,
    render_hotspots,
    validate_chrome_trace,
)

__all__ = [
    "Aggregate",
    "JsonlSink",
    "MemorySink",
    "NULL_SPAN",
    "Profiler",
    "ProvenanceCollector",
    "Recorder",
    "Span",
    "active",
    "aggregate_events",
    "chrome_trace",
    "collapsed_stacks",
    "count",
    "hotspots",
    "observe",
    "prometheus_text",
    "read_events",
    "recording",
    "render_hotspots",
    "render_profile",
    "render_stats",
    "self_time_profile",
    "span",
    "trace_context",
    "validate_chrome_trace",
]
