"""Multi-host fleet workers: lease-based claims over a shared journal.

PR 3's :class:`~repro.service.queue.JobQueue` serializes one driver's
transitions across crashes; this module turns the same JSONL journal
into a **multi-writer coordination protocol** so N detached worker
processes (``repro worker --root DIR``, any number of hosts sharing the
filesystem) drain campaigns cooperatively without double-execution:

* every mutating transition happens under an exclusive lock on a
  sidecar ``queue.jsonl.lock`` file (``flock`` where available, an
  ``O_EXCL`` spin-lock elsewhere), and begins by **refreshing** — an
  incremental, offset-tracked replay of journal records other workers
  appended since the last look;
* a claim carries the worker id and a wall-clock ``lease_until``
  deadline; a live worker heartbeats ``renew`` records while its cell
  runs, so a long cell never loses its lease;
* a claim whose lease expired (the worker was SIGKILLed, OOM-killed, or
  its host died) is requeued — with ``service.lease_expired`` and
  ``service.requeues`` counted — by whichever worker observes the
  expiry at its next claim, and the cell is completed by a survivor;
* before recording ``done``/``requeue``/``exhaust``, a worker re-checks
  (under the lock) that it *still* holds the claim; a worker that
  stalled past its lease and lost the job to a survivor discards its
  transition (``service.lease_lost``) instead of double-completing.
  Results go through the content-addressed store, so even that
  pathological overlap converges on byte-identical output.

:class:`FleetWorker` is the pull loop: discover campaigns under the
service root, claim a leased cell, serve it from the shared store or
run it as the executor's :class:`~repro.service.executor.CellAttempt`
(the same forked worker, store attachment, timeout mapping and
crash/retry classification as every other route), heartbeat the lease
while it runs, and record the terminal transition.  ``repro worker
--jobs N`` forks N such loops; ``--jobs 0`` sizes the pack to the
host's usable CPUs.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..bombs import get_bomb
from .executor import DEFAULT_BACKOFF, CellAttempt, _mp_context, wait
from .fingerprint import cell_key
from .queue import CLAIMED, PENDING, Job, JobQueue

#: Default lease duration; a worker renews at half-life, so a lease is
#: only allowed to expire when the holder missed >= 2 heartbeats.
DEFAULT_LEASE_S = 30.0
#: Fraction of the lease after which the holder heartbeats a renewal.
RENEW_FRACTION = 0.5


def auto_jobs() -> int:
    """Usable CPU count: ``os.process_cpu_count()`` (3.13+) falling
    back to the scheduling affinity mask, then ``os.cpu_count()``."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
        if n:
            return n
    try:
        n = len(os.sched_getaffinity(0))
        if n:
            return n
    except (AttributeError, OSError):
        pass
    return os.cpu_count() or 1


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class _FileLock:
    """Exclusive advisory lock on a sidecar file.

    ``flock`` where the platform has it (waits in the kernel, released
    automatically if the holder dies); otherwise an ``O_CREAT|O_EXCL``
    spin-lock with a staleness bound so a crashed holder cannot wedge
    the fleet forever.
    """

    _STALE_S = 60.0

    def __init__(self, path: Path):
        self.path = path
        self._fd: int | None = None
        try:
            import fcntl  # noqa: F401 - availability probe
            self._flock = True
        except ImportError:  # pragma: no cover - non-POSIX fallback
            self._flock = False

    def acquire(self) -> None:
        if self._flock:
            import fcntl

            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            return
        while True:  # pragma: no cover - non-POSIX fallback
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_RDWR)
                return
            except FileExistsError:
                try:
                    if time.time() - self.path.stat().st_mtime > self._STALE_S:
                        self.path.unlink(missing_ok=True)
                        continue
                except OSError:
                    pass
                time.sleep(0.005)

    def release(self) -> None:
        if self._fd is None:
            return
        if self._flock:
            import fcntl

            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        self._fd = None

    @contextlib.contextmanager
    def held(self):
        self.acquire()
        try:
            yield
        finally:
            self.release()


class FleetQueue(JobQueue):
    """Multi-writer view of one campaign's journal.

    Layered on :class:`JobQueue`: same records, same replay, plus an
    exclusive lock around every transition, an incremental
    offset-tracked ``refresh`` so concurrent appenders' records are
    folded in before any decision, and lease bookkeeping on claims.
    """

    def __init__(self, path: str | os.PathLike, worker_id: str, *,
                 lease_s: float = DEFAULT_LEASE_S, clock=time.time):
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.clock = clock
        self._offset = 0
        path = Path(path)
        self._lock = _FileLock(path.with_name(path.name + ".lock"))
        super().__init__(path, recover_claims=False)

    def _replay(self) -> None:
        # Initial state is just a refresh from offset 0; _apply'ing a
        # record twice converges, so refresh() after our own appends
        # (which base _append already applied in memory) is harmless.
        self.refresh()

    def refresh(self) -> int:
        """Fold in journal records appended since the last look.

        Reads complete lines from the stored byte offset; a torn tail
        (a writer mid-append on another host) is left for next time.
        Returns the number of records applied.
        """
        if self.path is None or not self.path.exists():
            return 0
        with self.path.open("rb") as fp:
            fp.seek(self._offset)
            data = fp.read()
        end = data.rfind(b"\n")
        if end < 0:
            return 0
        applied = 0
        for raw in data[:end].split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except ValueError:
                continue  # corrupt line (torn write + later append)
            self._apply(record)
            applied += 1
        self._offset += end + 1
        return applied

    # -- leased transitions ---------------------------------------------

    def claim_leased(self) -> Job | None:
        """Claim the next ready job under the lock, with a fresh lease.

        Also the expiry sweep: any claim whose lease deadline passed is
        requeued first (``service.lease_expired``), making the dead
        worker's cell immediately claimable — possibly by us, in this
        very call.
        """
        with self._lock.held():
            self.refresh()
            now = self.clock()
            for job in self.ordered_jobs():
                if job.status == CLAIMED and job.lease_until is not None \
                        and job.lease_until <= now:
                    obs.count("service.lease_expired")
                    obs.count("service.requeues")
                    self.requeue(
                        job.job_id,
                        reason=f"lease expired (worker {job.worker})")
            return self.claim(self.worker_id, now=now,
                              lease_until=now + self.lease_s)

    def renew_lease(self, job: Job) -> None:
        """Heartbeat: extend our lease while the cell is still running."""
        with self._lock.held():
            self.refresh()
            self.renew(job.job_id, self.worker_id,
                       self.clock() + self.lease_s)

    def finish_leased(self, job: Job, transition: str, **kw) -> bool:
        """Record a terminal transition iff we still hold the claim.

        *transition* is ``complete`` / ``requeue`` / ``exhaust``.  A
        worker that stalled past its lease finds the job requeued or
        re-claimed by a survivor; it must drop its transition (the
        survivor owns the job now) — counted as ``service.lease_lost``.
        """
        with self._lock.held():
            self.refresh()
            current = self.jobs.get(job.job_id)
            if current is None or current.status != CLAIMED \
                    or current.worker != self.worker_id:
                obs.count("service.lease_lost")
                return False
            getattr(self, transition)(job.job_id, **kw)
            return True


@dataclass
class WorkerStats:
    """One worker loop's tally (mirrors the executor's stats dict)."""

    claimed: int = 0
    cached: int = 0
    computed: int = 0
    timeouts: int = 0
    requeued: int = 0
    exhausted: int = 0
    lease_lost: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FleetWorker:
    """Pull-loop worker over every campaign under a service root."""

    root: str | os.PathLike
    worker_id: str = field(default_factory=default_worker_id)
    lease_s: float = DEFAULT_LEASE_S
    poll_s: float = 0.2
    backoff: float = DEFAULT_BACKOFF
    clock: object = time.time

    def __post_init__(self):
        from .campaign import CampaignService

        self.service = CampaignService(self.root)
        self.store = self.service.store
        self.stats = WorkerStats()
        self._queues: dict[str, FleetQueue] = {}
        self._specs: dict[str, object] = {}
        self._stop = False

    # -- discovery -------------------------------------------------------

    def _queue_for(self, cid: str) -> FleetQueue:
        queue = self._queues.get(cid)
        if queue is None:
            path = self.service._campaign_dir(cid) / "queue.jsonl"
            queue = FleetQueue(path, self.worker_id,
                               lease_s=self.lease_s, clock=self.clock)
            self._queues[cid] = queue
        return queue

    def _spec_for(self, cid: str):
        spec = self._specs.get(cid)
        if spec is None:
            spec = self._specs[cid] = self.service.spec(cid)
        return spec

    def claim_next(self):
        """(cid, queue, job) for the first claimable cell, or None."""
        for cid in self.service.campaigns():
            queue = self._queue_for(cid)
            job = queue.claim_leased()
            if job is not None:
                self.stats.claimed += 1
                return cid, queue, job
        return None

    def drained(self) -> bool:
        """True when every job of every campaign is terminal."""
        for cid in self.service.campaigns():
            queue = self._queue_for(cid)
            with queue._lock.held():
                queue.refresh()
            if any(j.status in (PENDING, CLAIMED)
                   for j in queue.jobs.values()):
                return False
        return True

    # -- the loop --------------------------------------------------------

    def run(self, *, drain: bool = False,
            max_idle: float | None = None) -> WorkerStats:
        """Claim-and-execute until stopped.

        *drain*: exit once every campaign under the root is terminal
        (the CI / batch mode).  *max_idle*: exit after that many
        seconds without a successful claim.  With neither, poll until
        the process is signalled.
        """
        idle_since = time.monotonic()
        with obs.span("worker", worker=self.worker_id):
            while not self._stop:
                claimed = self.claim_next()
                if claimed is None:
                    if drain and self.drained():
                        break
                    if max_idle is not None and \
                            time.monotonic() - idle_since >= max_idle:
                        break
                    time.sleep(self.poll_s)
                    continue
                idle_since = time.monotonic()
                self._execute(*claimed)
        return self.stats

    def _execute(self, cid: str, queue: FleetQueue, job: Job) -> None:
        spec = self._spec_for(cid)
        bomb = get_bomb(job.bomb_id)
        key = cell_key(bomb, job.tool)
        if self.store.get(key, bomb) is not None:
            self._finish(queue, job, "complete", {"result": "cached"},
                         "cached")
            return
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmpdir:
            attempt = CellAttempt(job, tmpdir, timeout=spec.timeout,
                                  store=self.store)
            self._heartbeat(attempt, queue)
            cell = attempt.collect()
        if cell is not None:
            # Store before completing: once the journal says done, any
            # reader must find the result.
            self.store.put(key, cell)
        self._finish(queue, job, *attempt.settle(
            cell, retries=spec.retries, backoff=self.backoff,
            now=self.clock()))

    def _heartbeat(self, attempt: CellAttempt, queue: FleetQueue) -> None:
        """Renew the lease while the attempt runs; stop it on overrun."""
        renew_every = self.lease_s * RENEW_FRACTION
        renew_at = self.clock() + renew_every
        while attempt.proc.is_alive():
            if attempt.overran(time.monotonic()):
                attempt.stop()
                return
            if self.clock() >= renew_at:
                queue.renew_lease(attempt.job)
                renew_at = self.clock() + renew_every
            until = time.monotonic() + max(0.0, renew_at - self.clock())
            if attempt.deadline is not None:
                until = min(until, attempt.deadline)
            wait([attempt], until)

    def _finish(self, queue: FleetQueue, job: Job, transition: str,
                kwargs: dict, outcome: str) -> None:
        """Record the terminal transition iff we still hold the lease."""
        if queue.finish_leased(job, transition, **kwargs):
            setattr(self.stats, outcome, getattr(self.stats, outcome) + 1)
        else:
            self.stats.lease_lost += 1


def run_worker(root: str | os.PathLike, *, worker_id: str | None = None,
               lease_s: float = DEFAULT_LEASE_S, poll_s: float = 0.2,
               drain: bool = False, max_idle: float | None = None,
               metrics_out: str | None = None) -> WorkerStats:
    """One worker loop, optionally with its own metrics stream.

    Module-level (picklable) so ``repro worker --jobs N`` and tests can
    fork it as a process target.
    """
    recorder = None
    if metrics_out is not None:
        recorder = obs.Recorder(sinks=[obs.JsonlSink(metrics_out)],
                                hist_values=True)
    worker = FleetWorker(root, worker_id=worker_id or default_worker_id(),
                         lease_s=lease_s, poll_s=poll_s)
    if recorder is not None:
        with obs.recording(recorder):
            return worker.run(drain=drain, max_idle=max_idle)
    return worker.run(drain=drain, max_idle=max_idle)


def run_fleet(root: str | os.PathLike, jobs: int, *,
              lease_s: float = DEFAULT_LEASE_S, poll_s: float = 0.2,
              drain: bool = False, max_idle: float | None = None,
              metrics_out: str | None = None) -> int:
    """Fork *jobs* worker loops over one root; returns the pack size.

    ``jobs == 0`` auto-sizes to :func:`auto_jobs`.  With a metrics
    path, each member writes ``<path>.<i>`` (concatenated streams feed
    ``repro stats`` directly).
    """
    jobs = auto_jobs() if jobs == 0 else jobs
    if jobs == 1:
        run_worker(root, lease_s=lease_s, poll_s=poll_s, drain=drain,
                   max_idle=max_idle, metrics_out=metrics_out)
        return 1
    ctx = _mp_context()
    procs = []
    for i in range(jobs):
        out = f"{metrics_out}.{i}" if metrics_out is not None else None
        procs.append(ctx.Process(
            target=run_worker, args=(str(root),),
            kwargs={"worker_id": f"{default_worker_id()}.{i}",
                    "lease_s": lease_s, "poll_s": poll_s, "drain": drain,
                    "max_idle": max_idle, "metrics_out": out}))
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    return jobs
