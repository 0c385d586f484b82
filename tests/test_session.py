"""The instrumentation session: one scoped install for every collector,
and one event per solver query feeding all of them."""

import pytest

from repro import obs, session
from repro.obs import profile, provenance
from repro.obs.profile import Profiler
from repro.obs.provenance import ProvenanceCollector
from repro.service.store import ResultStore
from repro.smt import mk_cmp, mk_const, mk_eq, mk_var, querylog
from repro.smt.querylog import QueryRecorder
from repro.smt.solver import IncrementalSolver, Solver

SLOTS = ("recorder", "profiler", "provenance", "queries", "store", "cell")


def _slots():
    sess = session.current()
    return tuple(getattr(sess, name) for name in SLOTS)


def _full(tmp_path, tag):
    return dict(recorder=obs.Recorder(), profiler=Profiler(),
                provenance=ProvenanceCollector(), queries=QueryRecorder(),
                store=ResultStore(tmp_path / tag), cell=(tag, "tool"))


@pytest.fixture(autouse=True)
def _empty_session():
    assert _slots() == (None, None, None, None, None, (None, None))
    yield
    assert _slots() == (None, None, None, None, None, (None, None))


class TestUse:
    def test_installs_and_restores_every_slot(self, tmp_path):
        outer, inner = _full(tmp_path, "outer"), _full(tmp_path, "inner")
        with session.use(**outer) as sess:
            assert sess is session.current()
            assert _slots() == tuple(outer[name] for name in SLOTS)
            assert (obs.active(), profile.active(), provenance.active(),
                    querylog.active()) == (outer["recorder"],
                                           outer["profiler"],
                                           outer["provenance"],
                                           outer["queries"])
            with session.use(**inner):
                assert _slots() == tuple(inner[name] for name in SLOTS)
            assert _slots() == tuple(outer[name] for name in SLOTS)

    def test_restores_every_slot_when_the_block_raises(self, tmp_path):
        outer, inner = _full(tmp_path, "outer"), _full(tmp_path, "inner")
        with session.use(**outer):
            with pytest.raises(RuntimeError):
                with session.use(**inner):
                    raise RuntimeError("leave the block early")
            assert _slots() == tuple(outer[name] for name in SLOTS)

    def test_unnamed_slots_are_inherited_unless_fresh(self, tmp_path):
        outer = _full(tmp_path, "outer")
        with session.use(**outer):
            with session.use(store=None):
                assert session.current().store is None
                assert obs.active() is outer["recorder"]
            with session.use(fresh=True):
                assert _slots() == (None,) * 5 + ((None, None),)

    def test_close_flushes_own_collectors_then_closes_recorder(self):
        sink = obs.MemorySink()
        rec = obs.Recorder(sinks=[sink])
        prof, prov = Profiler(), ProvenanceCollector()
        with session.use(recorder=rec, profiler=prof, close=True):
            prof.record_pcs("trace", {0x10: 1})
            with session.use(provenance=prov):
                prov.introduce("argv")
            # The nested session flushed only what it installed.
            assert rec.counters == {"prov.introduced": 1}
        assert rec.counters["prof.pc_buckets"] == 1
        assert rec._closed
        assert sink.events[-1]["t"] == "counter"  # closed after the flush

    def test_inherited_recorder_is_not_closed(self):
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            with session.use(profiler=Profiler(), close=True):
                pass
        assert not rec._closed


class TestOneQueryEvent:
    def _captured(self, run):
        rec, prof, queries = obs.Recorder(), Profiler(), QueryRecorder()
        with session.use(recorder=rec, profiler=prof, queries=queries,
                         cell=("b", "t")):
            run()
        return rec, prof, queries

    def _assert_once(self, rec, prof, queries, mode):
        assert rec.counters["smt.queries"] == 1
        assert rec.counters["smt.sat"] == 1
        assert len(rec.hists["smt.solve_s"]) == 1
        (key, bucket), = prof.query_buckets.items()
        assert key == ("b", "t", 0x40, "negation") and bucket["n"] == 1
        (occ,), = queries.occurrences.values()
        assert occ["solver"] == mode and occ["pc"] == 0x40
        assert list(queries.occurrences) == [("b", "t")]

    def test_one_shot_check_emits_one_event(self):
        def run():
            solver = Solver()
            solver.add(mk_eq(mk_var("q1", 8), mk_const(3, 8)))
            assert solver.check(tag=(0x40, "negation")).sat

        self._assert_once(*self._captured(run), "oneshot")

    def test_incremental_check_emits_one_event(self):
        def run():
            solver = IncrementalSolver()
            x = mk_var("q2", 8)
            solver.assert_expr(mk_cmp("ult", x, mk_const(10, 8)))
            assert solver.check(mk_eq(x, mk_const(3, 8)),
                                tag=(0x40, "negation")).sat

        self._assert_once(*self._captured(run), "incremental")

    def test_no_collector_no_event(self):
        solver = Solver()
        solver.add(mk_eq(mk_var("q3", 8), mk_const(3, 8)))
        with session.use(store=None):
            assert not session.current().observed
            assert solver.check().sat
        assert solver.queries == 1
