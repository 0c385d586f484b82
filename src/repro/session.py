"""The instrumentation session: every process-wide collector in one place.

A :class:`Session` holds five slots plus the cell being evaluated:

* ``recorder`` — the obs :class:`~repro.obs.core.Recorder` (spans,
  counters, histograms);
* ``profiler`` — the attribution :class:`~repro.obs.profile.Profiler`;
* ``provenance`` — the forensics
  :class:`~repro.obs.provenance.ProvenanceCollector`;
* ``queries`` — the solver-query
  :class:`~repro.smt.querylog.QueryRecorder`;
* ``store`` — the campaign :class:`~repro.service.store.ResultStore`
  that lift caches (``lift/``) and fuzz campaigns (``corpus/``)
  persist into;
* ``cell`` — the ``(bomb, tool)`` pair the profiler and query recorder
  attribute their records to.

:func:`use` is the only way to change any of them: it installs a
session for a ``with`` block (the given slots replace, the rest are
inherited unless *fresh*) and restores the previous one on exit, also
when the block raises.  :meth:`Session.close` is the one teardown:
flush the session's own profiler and provenance collector into its
recorder, then close the recorder if the session owns it.  Every route
that runs a cell (in-process, forked worker, fleet) installs its state
through these two, so effort is reported the same way on all of them.

A leaf module: the engines and the obs layer read the current session
without importing the service package, which itself imports the
evaluation harness.
"""

from __future__ import annotations

import contextlib

#: Marks a slot :func:`use` inherits from the enclosing session.
_KEEP = object()

_SLOTS = ("recorder", "profiler", "provenance", "queries", "store", "cell")


class Session:
    """One set of installed collectors.  Build it with :func:`use`."""

    __slots__ = _SLOTS + ("observed", "_flush", "_close")

    def __init__(self, recorder=None, profiler=None, provenance=None,
                 queries=None, store=None, cell=(None, None)):
        self.recorder = recorder
        self.profiler = profiler
        self.provenance = provenance
        self.queries = queries
        self.store = store
        self.cell = cell
        #: Any collector that times solver queries is installed; the
        #: solvers skip their telemetry entirely when it is False.
        self.observed = (recorder is not None or profiler is not None
                         or queries is not None)
        #: Collectors this session installed and flushes on close.
        self._flush: tuple = ()
        self._close = False

    def close(self) -> None:
        """Flush this session's own profiler and provenance collector
        into its recorder, then close the recorder if the session owns
        it.  Idempotent."""
        flush, self._flush = self._flush, ()
        for collector in flush:
            collector.flush_to(self.recorder)
        if self._close:
            self._close = False
            self.recorder.close()


_current = Session()


def current() -> Session:
    """The installed session (an empty one when nothing is on)."""
    return _current


@contextlib.contextmanager
def use(recorder=_KEEP, profiler=_KEEP, provenance=_KEEP, queries=_KEEP,
        store=_KEEP, cell=_KEEP, *, fresh: bool = False,
        close: bool = False):
    """``with use(recorder=rec, store=s) as session:`` — install a
    session for the block.

    Given slots (``None`` included) replace the enclosing session's;
    the rest are inherited, or empty with *fresh*.  On exit the previous
    session is restored and :meth:`Session.close` runs: a profiler or
    provenance collector given here flushes into the session's
    recorder, and with *close* the given recorder is closed.
    """
    global _current
    given = dict(zip(_SLOTS, (recorder, profiler, provenance, queries,
                              store, cell)))
    base = Session() if fresh else _current
    session = Session(**{name: getattr(base, name) if value is _KEEP
                         else value for name, value in given.items()})
    session._flush = tuple(given[name] for name in ("profiler", "provenance")
                           if given[name] not in (_KEEP, None))
    session._close = close and given["recorder"] not in (_KEEP, None)
    previous, _current = _current, session
    try:
        yield session
    finally:
        _current = previous
        session.close()


def cell(bomb, tool):
    """``with cell(bomb, tool):`` — attribute the block's profiler
    buckets and captured queries to the (bomb, tool) cell."""
    return use(cell=(bomb, tool))
