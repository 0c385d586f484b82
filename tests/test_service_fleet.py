"""Fleet workers: lease-based claims, crash recovery, no double-execution.

The acceptance criteria under test (ISSUE 7):

* two concurrent claimants over one shared journal never double-claim
  (and therefore never double-run) a cell;
* a worker SIGKILLed mid-cell loses its lease; a surviving worker
  requeues the expired claim and completes the campaign, and the
  fleet-produced store renders byte-identically to a single-process
  run;
* a stalled worker that outlives its lease discards its stale terminal
  transition (``service.lease_lost``) instead of double-completing;
* ``--jobs 0`` sizes the pack to the host's usable CPUs;
* fleet cells persist lifts and fuzz corpora into the campaign store
  like every other execution route.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.eval import render_table2, run_table2
from repro.ir import superblock
from repro.service import (
    KILL_CELL_ENV,
    CampaignService,
    CampaignSpec,
    FleetQueue,
    FleetWorker,
    auto_jobs,
    run_worker,
)
from repro.service.executor import _mp_context
from repro.service.queue import CLAIMED, DONE, PENDING, JobQueue

BOMBS = ("cp_stack", "sv_time")


def make_queue(tmp_path, n_jobs=4):
    path = tmp_path / "queue.jsonl"
    seed = JobQueue(path)
    seed.submit([(f"bomb{i}", "tool") for i in range(n_jobs)])
    seed.close()
    return path


class TestFleetQueue:
    def test_claims_are_disjoint_and_mutually_visible(self, tmp_path):
        path = make_queue(tmp_path)
        alpha = FleetQueue(path, "alpha")
        beta = FleetQueue(path, "beta")
        a = alpha.claim_leased()
        b = beta.claim_leased()
        assert a.job_id != b.job_id
        # Each side sees the other's claim after its next locked refresh.
        with alpha._lock.held():
            alpha.refresh()
        assert alpha.jobs[b.job_id].worker == "beta"
        assert alpha.jobs[b.job_id].status == CLAIMED

    def test_refresh_is_incremental_and_idempotent(self, tmp_path):
        path = make_queue(tmp_path)
        queue = FleetQueue(path, "alpha")
        job = queue.claim_leased()
        queue.finish_leased(job, "complete", result="computed")
        before = dict(queue.jobs[job.job_id].__dict__)
        # Re-applying our own already-folded records must converge.
        queue._offset = 0
        queue.refresh()
        assert dict(queue.jobs[job.job_id].__dict__) == before

    def test_expired_lease_is_swept_and_reclaimed(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [1000.0]
        dead = FleetQueue(path, "dead", lease_s=5.0, clock=lambda: now[0])
        job = dead.claim_leased()
        assert job.lease_until == 1005.0
        survivor = FleetQueue(path, "survivor", lease_s=5.0,
                              clock=lambda: now[0])
        assert survivor.claim_leased() is None  # lease still live
        now[0] = 1006.0
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            reclaimed = survivor.claim_leased()
        assert reclaimed is not None and reclaimed.job_id == job.job_id
        assert reclaimed.worker == "survivor"
        assert reclaimed.attempts == 2
        counters = rec.snapshot()["counters"]
        assert counters["service.lease_expired"] == 1
        assert counters["service.requeues"] == 1

    def test_renewal_keeps_a_long_cell_alive(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [0.0]
        holder = FleetQueue(path, "holder", lease_s=5.0,
                            clock=lambda: now[0])
        job = holder.claim_leased()
        now[0] = 4.0
        holder.renew_lease(job)          # heartbeat at t=4: lease to t=9
        now[0] = 6.0                     # past the original deadline
        rival = FleetQueue(path, "rival", lease_s=5.0, clock=lambda: now[0])
        assert rival.claim_leased() is None
        assert rival.jobs[job.job_id].worker == "holder"

    def test_stalled_worker_drops_its_stale_transition(self, tmp_path):
        path = make_queue(tmp_path, n_jobs=1)
        now = [0.0]
        stalled = FleetQueue(path, "stalled", lease_s=5.0,
                             clock=lambda: now[0])
        job = stalled.claim_leased()
        now[0] = 10.0                    # stalled far past its lease
        rival = FleetQueue(path, "rival", lease_s=5.0, clock=lambda: now[0])
        taken = rival.claim_leased()
        assert taken.worker == "rival"
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            landed = stalled.finish_leased(job, "complete",
                                           result="computed")
        assert landed is False           # the survivor owns the job now
        assert rec.snapshot()["counters"]["service.lease_lost"] == 1
        assert rival.finish_leased(taken, "complete", result="computed")
        with stalled._lock.held():
            stalled.refresh()
        assert stalled.jobs[job.job_id].status == DONE


def _hammer(path, worker_id, out_path):
    """Claim-and-complete loop for the concurrency test (forked)."""
    queue = FleetQueue(path, worker_id)
    claimed = []
    while True:
        job = queue.claim_leased()
        if job is None:
            with queue._lock.held():
                queue.refresh()
            if not any(j.status in (PENDING, CLAIMED)
                       for j in queue.jobs.values()):
                break
            time.sleep(0.001)
            continue
        claimed.append(job.job_id)
        queue.finish_leased(job, "complete", result="computed")
    Path(out_path).write_text(json.dumps(claimed))


class TestNoDoubleExecution:
    def test_concurrent_claimants_partition_the_queue_exactly(
            self, tmp_path):
        n_jobs, n_workers = 40, 4
        path = make_queue(tmp_path, n_jobs=n_jobs)
        ctx = _mp_context()
        procs, outs = [], []
        for i in range(n_workers):
            out = tmp_path / f"claims.{i}.json"
            outs.append(out)
            procs.append(ctx.Process(
                target=_hammer, args=(str(path), f"w{i}", str(out))))
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0
        claims = [json.loads(out.read_text()) for out in outs]
        flat = [job_id for per_worker in claims for job_id in per_worker]
        # Every job ran exactly once across the whole fleet: full
        # coverage, zero overlap.
        assert len(flat) == n_jobs
        assert len(set(flat)) == n_jobs
        final = JobQueue(path, recover_claims=False)
        assert all(j.status == DONE for j in final.jobs.values())
        final.close()


class TestFleetWorker:
    def test_drain_completes_a_campaign_like_a_single_process_run(
            self, tmp_path):
        fleet_svc = CampaignService(tmp_path / "fleet")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = fleet_svc.submit(spec)
        stats = FleetWorker(tmp_path / "fleet", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.computed == 2 and stats.lease_lost == 0
        status = fleet_svc.status(cid)
        assert status["states"]["done"] == 2

        solo_svc = CampaignService(tmp_path / "solo")
        solo = solo_svc.run(solo_svc.submit(spec))
        assert render_table2(fleet_svc.results(cid)) == \
            render_table2(solo.table)

    def test_worker_serves_warm_store_without_recomputing(self, tmp_path):
        service = CampaignService(tmp_path / "svc")
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        service.run(service.submit(spec))          # warms the store
        cid = service.submit(spec)
        stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.cached == 1 and stats.computed == 0
        assert service.status(cid)["results"] == {"cached": 1}

    def test_injected_crash_is_retried_to_the_genuine_result(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",), retries=2))
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                                poll_s=0.01, backoff=0.01).run(drain=True)
        assert stats.requeued == 1 and stats.computed == 1
        counters = rec.snapshot()["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.requeues"] == 1
        table = service.results(cid)
        assert table.cells[("cp_stack", "tritonx")].label == "ok"

    def test_crash_past_retries_exhausts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        service = CampaignService(tmp_path / "svc")
        cid = service.submit(CampaignSpec(bombs=("cp_stack",),
                                          tools=("tritonx",), retries=0))
        stats = FleetWorker(tmp_path / "svc", worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.exhausted == 1
        assert service.status(cid)["states"]["exhausted"] == 1

    def test_fleet_fills_the_store_like_a_cached_table2_run(self, tmp_path):
        """Fleet workers attach the campaign store in their cell
        processes, so lifts and fuzz corpora persist beside the cell
        results exactly as a cached ``run_table2`` writes them."""
        # Cell processes fork from this one and inherit its process-wide
        # lift registry; start both runs from a fresh process's state.
        superblock.reset()
        tools = ("angrx_nolib", "hybridx")
        root = tmp_path / "fleet"
        service = CampaignService(root)
        service.submit(CampaignSpec(bombs=("cp_stack",), tools=tools))
        stats = FleetWorker(root, worker_id="w0",
                            poll_s=0.01).run(drain=True)
        assert stats.computed == 2

        table2_store = tmp_path / "table2"
        run_table2(("cp_stack",), tools, jobs=2, cache=str(table2_store))
        for tree in ("lift", "corpus"):
            assert any((table2_store / tree).rglob("*.json")), tree
            fleet_files = {p.name for p in (root / "store" / tree).rglob("*")
                           if p.is_file()}
            table2_files = {p.name for p in (table2_store / tree).rglob("*")
                            if p.is_file()}
            assert fleet_files == table2_files, tree

    def test_auto_jobs_is_a_positive_cpu_count(self):
        n = auto_jobs()
        assert isinstance(n, int) and n >= 1


class TestSigkillRecovery:
    def test_sigkilled_workers_cell_is_requeued_and_completed(
            self, tmp_path):
        """The ISSUE's headline scenario, with a real SIGKILL.

        A worker process is killed -9 mid-cell; its lease expires; a
        surviving worker requeues the claim, completes every cell, and
        the assembled results render identically to an untouched
        single-process run.
        """
        root = tmp_path / "fleet"
        service = CampaignService(root)
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = service.submit(spec)
        journal = service._campaign_dir(cid) / "queue.jsonl"

        ctx = _mp_context()
        doomed = ctx.Process(
            target=run_worker, args=(str(root),),
            kwargs={"worker_id": "doomed", "lease_s": 0.5,
                    "poll_s": 0.01, "drain": True})
        doomed.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if journal.exists() and '"t":"claim"' in journal.read_text():
                break
            time.sleep(0.005)
        else:
            pytest.fail("doomed worker never claimed a cell")
        os.kill(doomed.pid, signal.SIGKILL)
        doomed.join()

        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            stats = FleetWorker(root, worker_id="survivor", lease_s=0.5,
                                poll_s=0.01).run(drain=True)
        counters = rec.snapshot()["counters"]
        assert counters["service.lease_expired"] >= 1
        assert counters["service.requeues"] >= 1
        assert stats.lease_lost == 0

        status = service.status(cid)
        assert status["states"]["done"] == 2
        assert status["states"]["pending"] == 0
        # No cell lost, none double-run: one terminal record per job.
        done_records = [json.loads(line)
                        for line in journal.read_text().splitlines()
                        if '"t":"done"' in line]
        assert len(done_records) == 2
        assert len({r["id"] for r in done_records}) == 2

        solo_svc = CampaignService(tmp_path / "solo")
        solo = solo_svc.run(solo_svc.submit(spec))
        assert render_table2(service.results(cid)) == \
            render_table2(solo.table)
        # Byte-identical reassembly from the fleet-produced store.
        assert json.dumps(service.results(cid).to_json()) == \
            json.dumps(service.results(cid).to_json())
