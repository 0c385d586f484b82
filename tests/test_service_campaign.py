"""Campaign service end to end: warm cache, invalidation, fault injection.

The acceptance criteria under test (ISSUE 4):

* re-running an identical campaign against a warm cache performs zero
  tool analyses and renders Table II byte-identical to the cold run;
* editing one bomb's source invalidates only that bomb's cells;
* a worker SIGKILLed mid-cell is requeued and the campaign completes
  with correct merged metrics — no cell lost, none double-counted;
* a per-cell wall-clock overrun maps to outcome E (and is never
  cached, since it reflects the run's budget, not the tool).
"""

import json
import os

import pytest

from repro import obs, session
from repro.bombs import get_bomb
from repro.eval import render_table2, run_table2
from repro.service import (
    KILL_CELL_ENV,
    CampaignService,
    CampaignSpec,
    ResultStore,
    cell_key,
)

from .test_service_store import edited_copy

BOMBS = ("cp_stack", "sv_time")
TOOLS = ("tritonx", "bapx")


@pytest.fixture
def service(tmp_path):
    return CampaignService(tmp_path / "svc")


class TestWarmCache:
    def test_identical_campaign_twice_is_all_hits_and_byte_identical(
            self, service):
        spec = CampaignSpec(bombs=BOMBS, tools=TOOLS, jobs=2)
        cold = service.run(service.submit(spec))
        assert cold.stats["computed"] == 4 and cold.stats["cache_hits"] == 0

        warm = service.run(service.submit(spec))
        assert warm.stats["cache_hits"] == 4
        assert warm.stats["computed"] == 0  # zero tool analyses
        assert render_table2(warm.table) == render_table2(cold.table)
        assert json.dumps(warm.table.to_json(), indent=2) == \
            json.dumps(cold.table.to_json(), indent=2)

    def test_results_verb_reassembles_from_store(self, service):
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",))
        cid = service.submit(spec)
        run = service.run(cid)
        assembled = service.results(cid)
        assert render_table2(assembled) == render_table2(run.table)

    def test_status_reports_job_states(self, service):
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        cid = service.submit(spec)
        before = service.status(cid)
        assert before["states"]["pending"] == 1
        service.run(cid)
        after = service.status(cid)
        assert after["states"]["done"] == 1
        assert after["results"] == {"computed": 1}

    def test_campaign_ids_are_content_derived_and_unique(self, service):
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",))
        first, second = service.submit(spec), service.submit(spec)
        assert first != second
        assert first.rsplit("-", 1)[0] == second.rsplit("-", 1)[0]


class TestInvalidation:
    def test_editing_one_bomb_recomputes_only_its_cells(
            self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            run_table2(bomb_ids=BOMBS, tools=("tritonx",), cache=store)
        cold = rec.snapshot()["counters"]
        assert cold["service.cache_misses"] == 2
        assert cold["service.cache_stores"] == 2

        # Edit cp_stack's source: its image digest changes, sv_time's
        # does not.
        edited = edited_copy("cp_stack", "int service_pad = argc + 40;")
        real_get_bomb = get_bomb

        def patched(bomb_id):
            return edited if bomb_id == "cp_stack" else real_get_bomb(bomb_id)

        monkeypatch.setattr("repro.eval.harness.get_bomb", patched)
        rec2 = obs.Recorder()
        with obs.recording(rec2, close=False):
            run_table2(bomb_ids=BOMBS, tools=("tritonx",), cache=store)
        counters = rec2.snapshot()["counters"]
        assert counters["service.cache_hits"] == 1       # sv_time reused
        assert counters["service.cache_misses"] == 1     # cp_stack recomputed
        assert counters["service.cache_stores"] == 1


class TestFaultTolerance:
    def test_sigkilled_worker_is_requeued_and_campaign_completes(
            self, service, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",), jobs=2)
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            report = service.run(service.submit(spec))

        assert report.stats["requeued"] == 1
        assert report.stats["computed"] == 2
        assert report.stats["exhausted"] == 0
        # The killed cell was re-run to its genuine outcome: no cell
        # lost, none duplicated.
        assert set(report.table.cells) == {(b, "tritonx") for b in BOMBS}
        assert report.table.cells[("cp_stack", "tritonx")].label == "ok"

        snap = rec.snapshot()
        counters = snap["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.jobs_requeued"] == 1
        assert counters["service.jobs_completed"] == 2
        # Merged metrics carry exactly one successful attempt per cell:
        # the killed attempt contributed nothing.
        assert snap["spans"]["cell"]["count"] == 2
        assert snap["spans"]["job"]["count"] == 2
        assert counters["vm.instructions"] > 0

    def test_crash_on_every_attempt_exhausts_to_E(self, service, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        # retries=0 and the injector kills attempt 1: the only attempt.
        spec = CampaignSpec(bombs=("cp_stack",), tools=("tritonx",),
                            retries=0)
        report = service.run(service.submit(spec))
        assert report.stats["exhausted"] == 1
        cell = report.table.cells[("cp_stack", "tritonx")]
        assert cell.label == "E"
        assert cell.infra_failure
        assert "resource-exhausted" in cell.diagnostic
        # Infrastructure failures are never cached: a later run with the
        # injector gone computes the genuine result.
        monkeypatch.delenv(KILL_CELL_ENV)
        retry = service.run(service.submit(spec))
        assert retry.stats["computed"] == 1
        assert retry.table.cells[("cp_stack", "tritonx")].label == "ok"

    def test_journal_survives_driver_restart(self, service, monkeypatch):
        # First driver exhausts the injected-crash cell; the second
        # (fresh queue replay) picks up only the remaining pending job.
        monkeypatch.setenv(KILL_CELL_ENV, "cp_stack:tritonx")
        spec = CampaignSpec(bombs=BOMBS, tools=("tritonx",), retries=0)
        cid = service.submit(spec)
        report = service.run(cid)
        assert report.stats["exhausted"] == 1
        monkeypatch.delenv(KILL_CELL_ENV)
        again = service.run(cid)
        # Everything is terminal: the rerun performs no work at all.
        assert again.stats["cells"] == 0
        status = service.status(cid)
        assert status["states"]["done"] == 1
        assert status["states"]["exhausted"] == 1


class TestTimeouts:
    def test_serial_timeout_maps_to_E_and_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = run_table2(bomb_ids=("cf_aes",), tools=("tritonx",),
                            timeout=0.05, cache=store)
        cell = result.cells[("cf_aes", "tritonx")]
        assert cell.label == "E"
        assert cell.infra_failure
        assert "wall-clock timeout" in cell.diagnostic
        assert len(store) == 0
        bomb = get_bomb("cf_aes")
        assert store.get(cell_key(bomb, "tritonx"), bomb) is None

    def test_pool_timeout_maps_to_E(self, service):
        spec = CampaignSpec(bombs=("cf_aes",), tools=("tritonx",),
                            timeout=0.05, jobs=2)
        report = service.run(service.submit(spec))
        assert report.stats["timeouts"] == 1
        assert report.table.cells[("cf_aes", "tritonx")].label == "E"


class TestStoreAttachment:
    """A cached run attaches its store only while it runs."""

    def test_uncached_run_after_a_cached_one_writes_nothing(self, tmp_path):
        store_root = tmp_path / "store"
        run_table2(("cp_stack",), ("tritonx",), cache=str(store_root))
        before = sorted(p for p in store_root.rglob("*") if p.is_file())
        assert before
        run_table2(("sv_time",), ("angrx_nolib", "hybridx"))
        assert sorted(p for p in store_root.rglob("*")
                      if p.is_file()) == before
        assert session.current().store is None

    def test_attachment_is_restored_when_a_cached_run_raises(self, tmp_path):
        outer = ResultStore(tmp_path / "outer")
        with session.use(store=outer):
            with pytest.raises(KeyError):
                run_table2(("cp_stack",), ("no_such_tool",),
                           cache=str(tmp_path / "inner"))
            assert session.current().store is outer
        assert session.current().store is None


class TestServiceRoutedTable2:
    def test_cache_and_jobs_route_matches_plain_parallel(self, tmp_path):
        plain = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2)
        routed = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2,
                            cache=str(tmp_path / "store"))
        assert render_table2(plain) == render_table2(routed)
        # Second routed run: all hits, byte-identical JSON.
        rerouted = run_table2(bomb_ids=BOMBS, tools=TOOLS, jobs=2,
                              cache=str(tmp_path / "store"))
        assert json.dumps(routed.to_json()) == json.dumps(rerouted.to_json())
