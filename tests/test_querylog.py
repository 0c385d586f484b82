"""SMT flight recorder: codec round-trips, digests, classes, recorder.

The codec tests lean on the interner: decoding through
:func:`repro.smt.expr.intern_node` must hand back the *same object* the
encoder saw (``is``, not just ``==``), because that identity is what
keeps record digests memoizable and the decoded DAG node-for-node equal
to the captured one.
"""

import json
import sys

import pytest

from repro import session
from repro.smt import querylog
from repro.smt.expr import (
    FP_OPS,
    _BV_BINOPS,
    _CMP_OPS,
    intern_node,
    mk_binop,
    mk_cmp,
    mk_const,
    mk_eq,
    mk_extract,
    mk_ite,
    mk_var,
)
from repro.smt.querylog import (
    CODEC_OPS,
    QueryRecorder,
    build_record,
    decode_expr,
    decode_exprs,
    decode_record,
    encode_expr,
    encode_exprs,
    feature_class,
    query_features,
)


def _sample_node(op: str):
    """Build one interned node exercising *op* exactly (no folding)."""
    a = intern_node("var", 32, name="a")
    b = intern_node("var", 32, name="b")
    cond = intern_node("var", 1, name="p")
    if op == "const":
        return intern_node("const", 32, value=0xDEAD)
    if op == "var":
        return a
    if op == "bvnot":
        return intern_node("bvnot", 32, (a,))
    if op == "ite":
        return intern_node("ite", 32, (cond, a, b))
    if op == "extract":
        return intern_node("extract", 8, (a,), value=(15 << 16) | 8)
    if op == "concat":
        return intern_node("concat", 64, (a, b))
    if op in ("zext", "sext"):
        return intern_node(op, 64, (a,))
    if op in _CMP_OPS:
        return intern_node(op, 1, (a, b))
    if op in _BV_BINOPS:
        return intern_node(op, 32, (a, b))
    if op in FP_OPS:
        # Arity is irrelevant to the codec; use two args uniformly.
        return intern_node(op, 64, (a, b))
    raise AssertionError(f"unhandled op {op}")


class TestCodecRoundTrip:
    @pytest.mark.parametrize("op", sorted(CODEC_OPS))
    def test_every_op_round_trips_to_the_same_interned_node(self, op):
        node = _sample_node(op)
        decoded = decode_expr(encode_expr(node))
        assert decoded is node

    def test_table_is_json_safe_and_deterministic(self):
        expr = mk_eq(mk_binop("add", mk_var("x", 32), mk_const(7, 32)),
                     mk_const(9, 32))
        nodes = encode_expr(expr)
        assert json.loads(json.dumps(nodes)) == nodes
        assert encode_expr(expr) == nodes

    def test_shared_subterms_encode_once(self):
        x = mk_var("x", 32)
        shared = mk_binop("mul", x, x)
        expr = mk_binop("add", shared, shared)
        nodes = encode_expr(expr)
        # x, mul, add — sharing survives, no duplicate entries.
        assert len(nodes) == 3
        assert decode_expr(nodes) is expr

    def test_multi_root_table_shares_across_roots(self):
        x = mk_var("x", 32)
        r1 = mk_eq(x, mk_const(1, 32))
        r2 = mk_eq(x, mk_const(2, 32))
        nodes, order = encode_exprs([r1, r2])
        table = decode_exprs(nodes)
        assert table[order[0]] is r1
        assert table[order[1]] is r2
        assert sum(1 for rec in nodes if rec[0] == "v") == 1

    def test_deep_chain_beyond_recursion_limit(self):
        expr = mk_var("x", 32)
        depth = sys.getrecursionlimit() + 500
        for _ in range(depth):
            expr = intern_node("bvnot", 32, (expr,))
        nodes = encode_expr(expr)
        assert len(nodes) == depth + 1
        assert decode_expr(nodes) is expr

    def test_decode_rejects_unknown_op_and_forward_reference(self):
        with pytest.raises(ValueError, match="unknown op"):
            decode_exprs([["frobnicate", 32, []]])
        with pytest.raises(ValueError, match="forward reference"):
            decode_exprs([["bvnot", 32, [1]], ["v", 32, "x"]])
        with pytest.raises(ValueError, match="empty"):
            decode_expr([])


class TestRecords:
    def _tagged(self):
        x = mk_var("x", 32)
        return [((0x40, "negation"), mk_eq(x, mk_const(5, 32))),
                (None, mk_cmp("ult", x, mk_const(100, 32)))]

    def test_digest_is_stable_and_content_addressed(self):
        budget = {"max_conflicts": 1000, "max_clauses": 10, "max_nodes": None}
        d1, body1 = build_record(self._tagged(), [], budget)
        d2, body2 = build_record(self._tagged(), [], budget)
        assert d1 == d2 and body1 == body2
        # Any constraint change moves the digest.
        d3, _ = build_record(self._tagged()[:1], [], budget)
        assert d3 != d1

    def test_budget_participates_in_the_digest(self):
        tagged = self._tagged()
        d1, _ = build_record(tagged, [], {"max_conflicts": 10})
        d2, _ = build_record(tagged, [], {"max_conflicts": 20})
        assert d1 != d2

    def test_record_round_trip_preserves_tags_and_assumptions(self):
        tagged = self._tagged()
        assumption = mk_eq(mk_var("x", 32), mk_const(5, 32))
        _, body = build_record(tagged, [assumption], {})
        tagged2, assumptions2 = decode_record(body)
        assert [t for t, _ in tagged2] == [[0x40, "negation"], None] or \
            [t for t, _ in tagged2] == [(0x40, "negation"), None]
        assert [e for _, e in tagged2] == [e for _, e in tagged]
        assert assumptions2 == [assumption]
        assert tagged2[0][1] is tagged[0][1]

    def test_decode_record_rejects_wrong_schema(self):
        _, body = build_record(self._tagged(), [], {})
        body["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            decode_record(body)


class TestFeaturesAndClasses:
    def test_features_of_a_small_query(self):
        x = mk_var("x", 32)
        expr = mk_eq(mk_binop("add", x, mk_const(1, 32)), mk_const(2, 32))
        nodes = encode_expr(expr)
        features = query_features(nodes, 1, 0)
        assert features["vars"] == 1
        assert features["nodes"] == len(nodes)
        assert features["max_width"] == 32
        assert features["depth"] >= 3
        assert features["constraints"] == 1 and features["assumptions"] == 0

    def test_class_rules_first_match(self):
        base = {"fp_ops": 0, "nodes": 100, "ites": 0, "ite_density": 0.0,
                "depth": 10}
        assert feature_class({**base, "fp_ops": 1}) == "fp-theory"
        assert feature_class({**base, "nodes": 20_001}) == "crypto-scale"
        assert feature_class({**base, "ites": 8}) == "select-ite"
        assert feature_class({**base, "ite_density": 0.05}) == "select-ite"
        assert feature_class({**base, "depth": 256}) == "deep-serial"
        assert feature_class({**base, "nodes": 64}) == "small-linear"
        assert feature_class(base) == "bitvector-mix"

    def test_every_class_name_is_enumerated(self):
        assert set(querylog.FEATURE_CLASSES) >= {
            "fp-theory", "crypto-scale", "select-ite", "deep-serial",
            "small-linear", "bitvector-mix"}


class TestQueryRecorder:
    def test_identical_queries_dedup_to_one_record(self):
        rec = QueryRecorder()
        cell = ("bomb", "tool")
        x = mk_var("x", 32)
        tagged = [((1, "negation"), mk_eq(x, mk_const(5, 32)))]
        budget = {"max_conflicts": 10}
        d1 = rec.record_check(tagged, [], (1, "negation"), "sat", 0.01,
                              {"conflicts": 2}, budget=budget, cell=cell)
        d2 = rec.record_check(tagged, [], (1, "negation"), "sat", 0.02,
                              {"conflicts": 0}, budget=budget, cell=cell)
        assert d1 == d2
        assert rec.queries == 2 and rec.dedup_hits == 1
        assert len(rec.records) == 1
        occs = rec.occurrences[("bomb", "tool")]
        assert [o["wall_s"] for o in occs] == [0.01, 0.02]
        assert occs[0]["class"] == "small-linear"
        summary = rec.summary()
        assert summary["distinct"] == 1
        assert summary["dedup_ratio"] == pytest.approx(0.5)

    def test_cell_scoping_restores_previous_context(self):
        rec = QueryRecorder()
        with session.use(queries=rec):
            with session.cell("outer_bomb", "outer_tool"):
                with session.cell("inner_bomb", "inner_tool"):
                    assert session.current().cell == ("inner_bomb",
                                                      "inner_tool")
                assert session.current().cell == ("outer_bomb", "outer_tool")
                assert querylog.active() is rec
        assert querylog.active() is None
        assert session.current().cell == (None, None)

    def test_module_hook_is_noop_without_recorder(self):
        from repro.smt.solver import Solver, report_query

        assert querylog.active() is None
        report_query(session.current(), Solver(), [], None, "sat", 0.0,
                     "oneshot")  # must not raise

    def test_persist_skips_empty_cells_and_dedups_records(self, tmp_path):
        from repro.service.store import ResultStore

        store = ResultStore(tmp_path / "store")
        rec = QueryRecorder()
        x = mk_var("x", 32)
        tagged = [(None, mk_eq(x, mk_const(5, 32)))]
        rec.record_check(tagged, [], None, "sat", 0.01, {}, cell=("b1", "t1"))
        rec.occurrences[("warm", "cell")] = []  # cache-served: no queries
        out = rec.persist(store)
        assert out == {"stored": 1, "skipped": 0, "cells": 1}
        # Re-persisting dedups against the store.
        assert rec.persist(store) == {"stored": 0, "skipped": 1, "cells": 1}
        assert store.get_query_manifest("warm", "cell") is None
        manifest = store.get_query_manifest("b1", "t1")
        assert len(manifest["queries"]) == 1


class TestSolverIntegration:
    def test_solver_check_is_recorded_with_verdict_and_budget(self):
        from repro.smt.solver import Solver

        rec = QueryRecorder()
        with session.use(queries=rec, cell=("b", "t")):
            solver = Solver(max_conflicts=777)
            x = mk_var("x", 8)
            solver.add(mk_eq(x, mk_const(3, 8)), tag=(0x10, "negation"))
            result = solver.check()
        assert result.status == "sat"
        assert rec.queries == 1
        (digest, body), = rec.records.items()
        assert body["budget"]["max_conflicts"] == 777
        occ = rec.occurrences[("b", "t")][0]
        assert occ["status"] == "sat"
        assert occ["solver"] == "oneshot"
        tagged, assumptions = decode_record(body)
        assert assumptions == []
        assert tagged[0][1] is solver.constraints[0]

    def test_incremental_check_records_assumptions(self):
        from repro.smt.solver import IncrementalSolver

        rec = QueryRecorder()
        x = mk_var("x", 8)
        with session.use(queries=rec):
            solver = IncrementalSolver()
            solver.assert_expr(mk_cmp("ult", x, mk_const(10, 8)))
            solver.check([mk_eq(x, mk_const(3, 8))])
            solver.check([mk_eq(x, mk_const(4, 8))])
        assert rec.queries == 2
        assert len(rec.records) == 2  # different assumptions => records
        occ = rec.occurrences[(None, None)][0]
        assert occ["solver"] == "incremental"
        for body in rec.records.values():
            assert len(body["assumptions"]) == 1

    def test_replaying_a_recorded_check_reproduces_the_verdict(self):
        from repro.smt.solver import Solver

        rec = QueryRecorder()
        with session.use(queries=rec):
            solver = Solver()
            x = mk_var("x", 8)
            solver.add(mk_cmp("ult", x, mk_const(5, 8)))
            solver.add(mk_cmp("ult", mk_const(9, 8), x))
            recorded = solver.check()
        (_, body), = rec.records.items()
        tagged, assumptions = decode_record(body)
        fresh = Solver(max_conflicts=body["budget"]["max_conflicts"],
                       max_clauses=body["budget"]["max_clauses"])
        for tag, expr in tagged:
            fresh.add(expr, tag)
        assert fresh.check(assumptions).status == recorded.status == "unsat"


class TestPolicyFingerprints:
    def test_capability_fingerprint_stable_under_flag(self):
        # The cache-key digest must not move when logging toggles —
        # otherwise turning the recorder on would invalidate every
        # cached cell result.
        from repro.tools.api import capability_fingerprint

        base = capability_fingerprint("tritonx")
        with session.use(queries=QueryRecorder()):
            assert capability_fingerprint("tritonx") == base
