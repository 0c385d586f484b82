"""Fault-tolerant cell execution: forked attempts, timeouts, retries.

Every cell that runs outside the calling process — ``repro table2
--jobs N`` / ``--timeout``, ``run_cell(timeout=)``, campaigns and fleet
workers — runs as a :class:`CellAttempt`: a forked child whose only
code is :func:`_worker_main`.  That gives three properties:

* **wall-clock timeouts** — the driver kills a worker that exceeds the
  per-cell budget and classifies the cell ``E`` with a
  ``resource-exhausted`` diagnostic (a stuck tool can never hang a
  campaign or ``repro table2 --timeout``);
* **crash isolation** — a worker dying mid-cell (OOM-kill, SIGKILL,
  interpreter abort) only loses that attempt: the job is requeued with
  exponential backoff and re-run, up to a bounded number of retries,
  after which the cell is classified ``E``;
* **exact metrics** — each worker records to a private JSONL stream the
  driver absorbs after a *successful* attempt, so merged counters and
  stage spans never double-count killed attempts.

Every worker starts a fresh instrumentation session (:mod:`repro.session`)
holding only the driver's result store (or none) and, when the driver
records, its own recorder and profiler, so lift caches and fuzz corpora
land in the store the same way on every route and nothing the driver
had installed leaks into the cell.

Results travel through the filesystem (pickle written to a temp file,
then ``os.replace``): a killed worker can leave no torn result, and the
driver distinguishes "finished" (result file exists) from "died"
(no file) purely by what survived.  Drivers never sleep-poll: they
block on the workers' process sentinels (:func:`wait`) until one exits
or the nearest deadline passes.

Infrastructure failures (timeout, crash exhaustion) are *not* written
to the result store — they depend on the run's timeout/retry settings,
which are not part of the cache key — while every genuinely computed
cell (including a tool's own in-budget ``E``) is cached.

Fault injection for tests: set ``REPRO_SERVICE_KILL_CELL=bomb:tool`` in
the environment and the worker SIGKILLs itself mid-cell on the first
attempt of that cell, exercising the requeue path end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import tempfile
import time
from multiprocessing import connection
from pathlib import Path

from .. import obs, session
from ..obs import profile
from ..bombs import get_bomb
from ..bombs.suite import Bomb
from ..errors import DiagnosticKind, DiagnosticLog
from ..eval.classify import classify
from ..eval.harness import CellResult, run_cell
from ..tools.api import ToolReport
from .queue import Job, JobQueue
from .store import ResultStore

#: Crash retries before a job is classified E (attempts = retries + 1).
DEFAULT_RETRIES = 2
#: Base of the exponential requeue backoff, in seconds.
DEFAULT_BACKOFF = 0.05
#: Grace period between SIGTERM and SIGKILL on timeout: long enough for
#: the worker's handler to flush partial spans, short enough that a
#: wedged worker barely delays the driver.
_TERM_GRACE_S = 0.5

#: Environment variable for test fault injection ("<bomb>:<tool>").
KILL_CELL_ENV = "REPRO_SERVICE_KILL_CELL"


def _mp_context():
    """Fork when available: workers inherit compiled bomb images."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def infrastructure_failure_cell(bomb: Bomb, tool: str, detail: str,
                                elapsed: float) -> CellResult:
    """Synthesize the E cell for a timeout or an exhausted crash loop."""
    log = DiagnosticLog()
    log.emit(DiagnosticKind.RESOURCE_EXHAUSTED, detail)
    report = ToolReport(tool=tool, bomb_id=bomb.bomb_id, diagnostics=log,
                        aborted=detail, elapsed=elapsed)
    outcome = classify(report)
    return CellResult(
        bomb_id=bomb.bomb_id,
        tool=tool,
        outcome=outcome,
        expected=bomb.expected.get(tool),
        report=report,
        diagnostic=str(log.events[0]),
        infra_failure=True,
    )


def _worker_main(bomb_id: str, tool: str, attempt: int,
                 result_path: str, metrics_path: str | None,
                 trace_ctx: tuple | None,
                 store_root: str | None) -> None:
    """Worker process: evaluate one cell, persist the pickled result.

    *trace_ctx* is ``(trace_id, parent_span_id, profiling)`` from the
    driver, so the worker's spans join the campaign's trace and the
    attribution profiler mirrors the driver's state.  *store_root* is
    the driver's result store.  The cell runs in a fresh session: the
    driver's collectors (whose recorder writes to the parent's fds,
    whose evidence must not steer the cell, whose captures would be
    lost on exit) are not inherited.  A SIGTERM (the driver's timeout
    path) flushes in-flight spans with an ``aborted`` attribute and
    tears the session down before exiting, so killed cells still
    appear in traces.
    """
    kill_spec = os.environ.get(KILL_CELL_ENV)
    if kill_spec == f"{bomb_id}:{tool}" and attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    bomb = get_bomb(bomb_id)
    store = ResultStore(store_root) if store_root is not None else None
    recorder = profiler = None
    if metrics_path is not None:
        trace_id, parent_span_id, profiling_on = \
            trace_ctx or (None, None, False)
        recorder = obs.Recorder(sinks=[obs.JsonlSink(metrics_path)],
                                hist_values=True, trace_id=trace_id,
                                parent_span_id=parent_span_id)
        profiler = profile.Profiler() if profiling_on else None
    with session.use(recorder=recorder, profiler=profiler, store=store,
                     fresh=True, close=True) as sess:
        if recorder is not None:
            def _terminated(signum, frame):
                recorder.abort_open_spans("sigterm")
                sess.close()
                os._exit(128 + signal.SIGTERM)

            signal.signal(signal.SIGTERM, _terminated)
        with obs.span("job", bomb=bomb_id, tool=tool, attempt=attempt):
            cell = run_cell(bomb, tool)
    tmp = result_path + ".tmp"
    with open(tmp, "wb") as fp:
        pickle.dump(cell, fp)
    os.replace(tmp, result_path)


class CellAttempt:
    """One attempt at *job*'s cell in a forked :func:`_worker_main`.

    The driver blocks in :func:`wait`, calls :meth:`stop` on an attempt
    that :meth:`overran` its deadline, then :meth:`collect` for the cell
    and :meth:`settle` for the job's queue transition.  The worker's
    files live in *tmpdir*, which must outlive the attempt.
    """

    def __init__(self, job: Job, tmpdir: str, *, timeout: float | None,
                 store: ResultStore | None):
        self.job = job
        self.recorder = obs.active()
        self.result_path = str(Path(tmpdir) /
                               f"{job.job_id}-a{job.attempts}.pkl")
        self.metrics_path = (self.result_path + ".jsonl"
                             if self.recorder is not None else None)
        trace_ctx = None
        if self.recorder is not None:
            trace_ctx = (self.recorder.trace_id,
                         self.recorder.current_span_id(),
                         profile.active() is not None)
        self.proc = _mp_context().Process(
            target=_worker_main,
            args=(job.bomb_id, job.tool, job.attempts, self.result_path,
                  self.metrics_path, trace_ctx,
                  str(store.root) if store is not None else None))
        self.proc.start()
        self.started = time.monotonic()
        self.deadline = (self.started + timeout
                         if timeout is not None else None)
        self.timed_out = False

    def overran(self, now: float) -> bool:
        """Still running at or past the deadline."""
        return self.deadline is not None and now >= self.deadline \
            and self.proc.is_alive()

    def stop(self) -> None:
        """The timeout path.  SIGTERM first: the worker's handler flushes
        partial spans and profiler buckets before exiting.  SIGKILL only
        a worker too wedged to honor it within the grace period."""
        self.timed_out = True
        self.proc.terminate()
        self.proc.join(_TERM_GRACE_S)
        if self.proc.is_alive():
            self.proc.kill()

    def collect(self) -> CellResult | None:
        """The worker's cell, or None when it timed out or died.

        A finished worker's metrics stream is absorbed whole.  A result
        that landed right at the deadline is honored (the atomic rename
        means a persisted result is always whole).  A timed-out attempt
        is terminal, so its partial stream is absorbed too, skipping a
        last line torn by SIGKILL; a crashed attempt's stream is
        dropped, because the retry will record the cell again.
        """
        from ..obs import read_events

        self.proc.join()
        absorb = self.recorder is not None and self.metrics_path is not None
        if os.path.exists(self.result_path):
            with open(self.result_path, "rb") as fp:
                cell = pickle.load(fp)
            if absorb:
                self.recorder.absorb(read_events(self.metrics_path))
            return cell
        if absorb and self.timed_out and os.path.exists(self.metrics_path):
            self.recorder.absorb(read_events(self.metrics_path, strict=False))
        return None

    def settle(self, cell: CellResult | None, *, retries: int,
               backoff: float, now: float) -> tuple[str, dict, str]:
        """``(transition, kwargs, outcome)`` ending this attempt's job.

        *transition* names the queue method (``complete`` / ``requeue``
        / ``exhaust``), *kwargs* its arguments past the job id, and
        *outcome* the tally it counts as (``computed`` / ``timeouts`` /
        ``requeued`` / ``exhausted``).  A crash is requeued after
        ``backoff * 2**(attempt-1)`` seconds of the driver's clock
        (*now*) while attempts remain.
        """
        job = self.job
        if cell is not None:
            return "complete", {"result": "computed"}, "computed"
        if self.timed_out:
            obs.count("service.cells_timeout")
            return "complete", {"result": "timeout"}, "timeouts"
        detail = (f"worker died (exit {self.proc.exitcode}) on attempt "
                  f"{job.attempts}")
        if job.attempts <= retries:
            obs.count("service.retries")
            obs.count("service.requeues")
            delay = backoff * (2 ** (job.attempts - 1))
            return ("requeue", {"reason": detail, "not_before": now + delay},
                    "requeued")
        return "exhaust", {"reason": detail}, "exhausted"


def wait(attempts: list[CellAttempt], until: float | None) -> None:
    """Block until one of *attempts* exits or the monotonic clock
    reaches *until* (None: no bound)."""
    timeout = None if until is None else max(0.0, until - time.monotonic())
    connection.wait([a.proc.sentinel for a in attempts], timeout)


class CellExecutor:
    """Drives a :class:`JobQueue` of cells to completion.

    ``run()`` claims jobs, serves cache hits from *store*, fans misses
    out over up to *jobs* worker processes, and invokes *on_cell* with
    every finished :class:`CellResult` (cached, computed, or
    synthesized ``E``).  It opens no span of its own: the workers'
    ``job`` spans join the caller's (``table2`` or ``campaign``).  Terminal job results recorded in the queue:
    ``cached``, ``computed``, ``timeout``, ``crash-exhausted``.
    """

    def __init__(self, queue: JobQueue, *, jobs: int = 1,
                 timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 store: ResultStore | None = None,
                 key_for=None):
        from .fingerprint import cell_key

        self.queue = queue
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.store = store
        self._key_for = key_for or cell_key
        self._keys: dict[tuple[str, str], str] = {}
        self.stats = {"cells": 0, "cache_hits": 0, "computed": 0,
                      "timeouts": 0, "requeued": 0, "exhausted": 0}

    def _key(self, bomb: Bomb, tool: str) -> str:
        cell = (bomb.bomb_id, tool)
        if cell not in self._keys:
            self._keys[cell] = self._key_for(bomb, tool)
        return self._keys[cell]

    # -- driver loop -----------------------------------------------------

    def run(self, on_cell) -> dict:
        """Drain the queue; returns the run's summary stats."""
        inflight: list[CellAttempt] = []
        with tempfile.TemporaryDirectory(prefix="repro-service-") as tmpdir:
            while True:
                self._fill_slots(inflight, tmpdir, on_cell)
                pending = self.queue.pending()
                if not inflight and not pending:
                    break
                # Wake at the first worker exit, the nearest timeout, or
                # (with a free slot) the end of the nearest requeue
                # backoff, whichever comes first.
                wakeups = [a.deadline for a in inflight
                           if a.deadline is not None]
                if len(inflight) < self.jobs:
                    wakeups += [job.not_before for job in pending]
                wait(inflight, min(wakeups, default=None))
                now = time.monotonic()
                still = []
                for attempt in inflight:
                    if attempt.overran(now):
                        attempt.stop()
                    elif attempt.proc.is_alive():
                        still.append(attempt)
                        continue
                    self._finish(attempt, on_cell)
                inflight[:] = still
        return dict(self.stats)

    def _fill_slots(self, inflight, tmpdir, on_cell) -> None:
        while len(inflight) < self.jobs:
            job = self.queue.claim(worker=f"w{len(inflight)}")
            if job is None:
                return
            bomb = get_bomb(job.bomb_id)
            # Keying compiles the image here, once per bomb, so every
            # attempt at the bomb forks with it already built.
            key = self._key(bomb, job.tool)
            if self.store is not None:
                cached = self.store.get(key, bomb)
                if cached is not None:
                    self.queue.complete(job.job_id, result="cached")
                    self.stats["cells"] += 1
                    self.stats["cache_hits"] += 1
                    on_cell(cached)
                    continue
            inflight.append(CellAttempt(job, tmpdir, timeout=self.timeout,
                                        store=self.store))

    def _finish(self, attempt: CellAttempt, on_cell) -> None:
        job = attempt.job
        cell = attempt.collect()
        if cell is not None and self.store is not None:
            self.store.put(self._key(get_bomb(cell.bomb_id), cell.tool), cell)
        transition, kwargs, outcome = attempt.settle(
            cell, retries=self.retries, backoff=self.backoff,
            now=time.monotonic())
        getattr(self.queue, transition)(job.job_id, **kwargs)
        self.stats[outcome] += 1
        if transition == "requeue":
            return
        if cell is None:
            detail = (f"wall-clock timeout after {self.timeout:g}s"
                      if attempt.timed_out else
                      f"worker crashed on all {job.attempts} attempts "
                      f"(last exit {attempt.proc.exitcode})")
            cell = infrastructure_failure_cell(
                get_bomb(job.bomb_id), job.tool, detail,
                time.monotonic() - attempt.started)
        self.stats["cells"] += 1
        on_cell(cell)


def execute_matrix(bomb_ids: tuple[str, ...], tools: tuple[str, ...],
                   *, jobs: int, timeout: float | None,
                   store: ResultStore | None,
                   retries: int = DEFAULT_RETRIES,
                   verbose: bool = False):
    """Out-of-process Table II evaluation: the route of
    :func:`repro.eval.harness.run_table2` for ``jobs > 1`` or a
    *timeout*, and of ``run_cell(timeout=)`` as a one-cell matrix.

    Runs the cell matrix on an ephemeral in-memory queue through
    :class:`CellExecutor` under a ``table2`` span and reassembles a
    ``Table2Result``; ``eval.cells_merged`` counts the worker results
    folded back in.  Cells are keyed by (bomb, tool), so completion
    order cannot change the rendered or JSON output.
    """
    from ..eval.harness import Table2Result, _print_cell

    queue = JobQueue(None)
    queue.submit([(b, t) for b in bomb_ids for t in tools])
    result = Table2Result()
    executor = CellExecutor(queue, jobs=jobs, timeout=timeout,
                            retries=retries, store=store)
    with obs.span("table2", jobs=jobs, cells=len(bomb_ids) * len(tools)):
        stats = executor.run(result.add)
        if stats["computed"]:
            obs.count("eval.cells_merged", stats["computed"])
    if verbose:
        for bomb_id in bomb_ids:
            for tool in tools:
                cell = result.cells.get((bomb_id, tool))
                if cell is not None:
                    _print_cell(cell)
    return result
