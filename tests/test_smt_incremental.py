"""Differential tests: incremental vs one-shot solving must agree.

The incremental solver (persistent CDCL instance + shared Tseitin
cache, assumption-based queries) replaces a fresh ``Solver`` per branch
negation in the concolic engine.  These tests pin the contract that
makes that swap safe: on any query sequence — randomized constraint
sets and the actual Table II negation queries — both paths report the
same status, and every SAT model actually satisfies its query.
"""

import random

import pytest

from repro import obs
from repro.bombs import TABLE2_BOMB_IDS, get_bomb
from repro.concolic import TraceReplayer
from repro.errors import SolverError
from repro.smt import (
    IncrementalSolver,
    SatSolver,
    Solver,
    eval_expr,
    mk_binop,
    mk_bool_not,
    mk_cmp,
    mk_const,
    mk_eq,
    mk_var,
)
from repro.tools.profiles import BAPX, TRITONX
from repro.trace import record_trace


def _lit(var: int, positive: bool = True) -> int:
    return var * 2 + (0 if positive else 1)


class TestSatAssumptions:
    """The CDCL layer underneath: assumptions as pseudo-decisions."""

    def test_assumption_forces_value(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([_lit(a, False), _lit(b)])  # a -> b
        model = solver.solve(assumptions=[_lit(a)])
        assert model is not None and model[a] == 1 and model[b] == 1

    def test_unsat_under_assumptions_does_not_poison(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([_lit(a, False), _lit(b)])
        assert solver.solve(assumptions=[_lit(a), _lit(b, False)]) is None
        # The same instance answers later queries (learnt state intact).
        model = solver.solve(assumptions=[_lit(a)])
        assert model is not None and model[b] == 1
        assert solver.solve() is not None

    def test_contradictory_assumptions(self):
        solver = SatSolver()
        a = solver.new_var()
        assert solver.solve(assumptions=[_lit(a), _lit(a, False)]) is None
        assert solver.solve() is not None

    def test_assumption_falsified_at_root(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, False)])  # unit: ~a
        assert solver.solve(assumptions=[_lit(a)]) is None
        model = solver.solve()
        assert model is not None and model[a] == 0

    def test_learnt_clauses_survive_between_queries(self):
        # A small pigeonhole core forced via assumptions: after the
        # first (conflict-heavy) query the instance retains its learnt
        # clauses, so re-asking is much cheaper.
        rng = random.Random(7)
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(30)]
        for _ in range(120):
            chosen = rng.sample(variables, 3)
            solver.add_clause([_lit(v, rng.random() < 0.5) for v in chosen])
        first = solver.solve(assumptions=[_lit(variables[0])])
        conflicts_after_first = solver.conflicts
        second = solver.solve(assumptions=[_lit(variables[0])])
        assert (first is None) == (second is None)
        # The repeat query does at most as much new conflict work.
        assert solver.conflicts - conflicts_after_first <= \
            max(1, conflicts_after_first)

    def test_model_is_complete_and_satisfying(self):
        rng = random.Random(11)
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(15)]
        clauses = []
        for _ in range(40):
            chosen = rng.sample(variables, 3)
            clause = [_lit(v, rng.random() < 0.5) for v in chosen]
            clauses.append(clause)
            solver.add_clause(list(clause))
        model = solver.solve(assumptions=[_lit(variables[3], False)])
        if model is not None:
            assert model[variables[3]] == 0
            for clause in clauses:
                assert any(model[l >> 1] == 1 - (l & 1) for l in clause)


def _rand_term(rng: random.Random, variables, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(variables)
        return mk_const(rng.randrange(256), 8)
    op = rng.choice(["add", "sub", "mul", "and", "or", "xor"])
    return mk_binop(op, _rand_term(rng, variables, depth - 1),
                    _rand_term(rng, variables, depth - 1))


def _rand_constraint(rng: random.Random, variables):
    op = rng.choice(["eq", "ult", "ule", "slt", "sle"])
    a = _rand_term(rng, variables, 2)
    b = _rand_term(rng, variables, 2)
    node = mk_eq(a, b) if op == "eq" else mk_cmp(op, a, b)
    return mk_bool_not(node) if rng.random() < 0.5 else node


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_agrees_with_one_shot(self, seed):
        """Replay the engine's query pattern over random constraints.

        prefix[:i] + negation(prefix[i]) per step — exactly how
        ``_negate_and_enqueue`` drives the two solver flavors."""
        rng = random.Random(1000 + seed)
        variables = [mk_var(f"rd{seed}_v{k}", 8) for k in range(3)]
        constraints = [_rand_constraint(rng, variables) for _ in range(10)]
        inc = IncrementalSolver()
        for i, target in enumerate(constraints):
            negation = mk_bool_not(target)
            fresh = Solver()
            for prior in constraints[:i]:
                fresh.add(prior)
            if not negation.is_const:
                fresh.add(negation)
                one_shot = fresh.check()
                incremental = inc.check(negation)
                assert one_shot.status == incremental.status, (
                    f"step {i}: one-shot {one_shot.status} vs "
                    f"incremental {incremental.status}"
                )
                if incremental.sat:
                    query = constraints[:i] + [negation]
                    for expr in query:
                        assert eval_expr(expr, incremental.model) == 1
                    for expr in query:
                        assert eval_expr(expr, one_shot.model) == 1
            # Constant constraints are asserted too — assert_expr folds
            # them (a constant false poisons the prefix, like one-shot).
            inc.assert_expr(target)

    def test_node_budget_matches_one_shot(self):
        x = mk_var("nb_x", 64)
        node = x
        for i in range(50):
            node = mk_binop("mul", node, mk_var(f"nb_{i}", 64))
        constraint = mk_eq(node, mk_const(1, 64))
        inc = IncrementalSolver(max_nodes=50)
        inc.assert_expr(constraint)
        with pytest.raises(SolverError, match="too large"):
            inc.check(mk_cmp("ult", x, mk_const(9, 64)))

    def test_const_prefix_and_presolve_short_circuits(self):
        v = mk_var("sc_v", 8)
        inc = IncrementalSolver()
        inc.assert_expr(mk_cmp("ule", mk_const(48, 8), v))
        inc.assert_expr(mk_cmp("ule", v, mk_const(57, 8)))
        # Interval presolve refutes this without touching the SAT core.
        assert not inc.check(mk_cmp("ult", v, mk_const(40, 8))).sat
        assert inc._sat is None
        # A constant-false prefix makes every later query unsat.
        inc.assert_expr(mk_const(0, 1))
        assert not inc.check(mk_eq(v, mk_const(50, 8))).sat


def _negation_queries(bomb, policy):
    """The first-round Table II negation queries for (bomb, policy)."""
    trace = record_trace(
        bomb.image, [bomb.bomb_id.encode()] + bomb.seed_argv,
        bomb.base_env(), max_steps=policy.max_trace_steps,
        max_events=policy.max_trace_events,
    )
    replay = TraceReplayer(bomb.image, policy).replay(trace)
    return [c.expr for c in replay.constraints]


# Every Table II bomb whose seed replay yields constraints quickly; the
# crypto rows are excluded only for runtime (their one-shot re-solve of
# every growing prefix is exactly the cost this layer removes).
_DIFF_BOMBS = [b for b in TABLE2_BOMB_IDS if not b.startswith("cf_")]


class TestTable2QueriesDifferential:
    @pytest.mark.parametrize("tool", [TRITONX, BAPX], ids=lambda p: p.name)
    def test_every_negation_query_agrees(self, tool):
        total = 0
        for bomb_id in _DIFF_BOMBS:
            bomb = get_bomb(bomb_id)
            constraints = _negation_queries(bomb, tool)
            inc = IncrementalSolver(tool.solver_conflicts,
                                    tool.solver_clauses, tool.solver_nodes)
            for i, target in enumerate(constraints):
                negation = mk_bool_not(target)
                if not negation.is_const:
                    fresh = Solver(tool.solver_conflicts,
                                   tool.solver_clauses, tool.solver_nodes)
                    fresh.extend(constraints[:i])
                    fresh.add(negation)
                    try:
                        one_shot = fresh.check()
                    except SolverError as err:
                        with pytest.raises(SolverError, match="."):
                            inc.check(negation)
                        inc.assert_expr(target)
                        continue
                    incremental = inc.check(negation)
                    total += 1
                    assert one_shot.status == incremental.status, (
                        f"{bomb_id}/{tool.name} query {i}"
                    )
                    if incremental.sat:
                        for expr in constraints[:i]:
                            assert eval_expr(expr, incremental.model) == 1
                        assert eval_expr(negation, incremental.model) == 1
                inc.assert_expr(target)
        assert total > 50, f"only {total} queries exercised"


class TestObsCounters:
    def test_prefix_reuse_and_assumption_queries_recorded(self):
        v = mk_var("oc_v", 8)
        constraints = [
            mk_cmp("ult", v, mk_const(200, 8)),
            mk_cmp("ule", mk_const(3, 8), v),
            mk_eq(mk_binop("and", v, mk_const(1, 8)), mk_const(1, 8)),
        ]
        rec = obs.Recorder()
        with obs.recording(rec, close=False):
            inc = IncrementalSolver()
            for i, target in enumerate(constraints):
                inc.check(mk_bool_not(target))
                inc.assert_expr(target)
        counters = rec.snapshot()["counters"]
        assert counters["smt.assumption_queries"] == 3
        # Prefix constraints encode lazily at the query *after* their
        # assertion, so query i reuses the i-1 constraints encoded by
        # earlier queries: 0 + 0 + 1 here.
        assert counters["smt.prefix_reuse"] == 1
        assert counters["smt.queries"] == 3
        assert counters["smt.gates"] > 0

    def test_sat_counters_are_per_query_deltas(self):
        """Every solver front-end flushes its SAT work through one
        delta-based reporter: the counters sum the per-query stats and
        the persistent instance's lifetime totals."""
        v = mk_var("sc_v", 8)
        w = mk_var("sc_w", 8)
        constraints = [
            mk_cmp("ult", mk_binop("add", v, w), mk_const(100, 8)),
            mk_eq(mk_binop("xor", v, w), mk_const(0x5a, 8)),
            mk_cmp("ule", mk_const(7, 8), w),
        ]
        keys = ("conflicts", "decisions", "propagations", "restarts",
                "learnt", "gates")
        rec = obs.Recorder()
        per_query = []
        with obs.recording(rec, close=False):
            inc = IncrementalSolver()
            for target in constraints:
                inc.check(mk_bool_not(target))
                per_query.append(inc._last_query_stats)
                inc.assert_expr(target)
            one = Solver()
            one.extend(constraints)
            assert one.check().sat
            per_query.append(one._last_query_stats)
        counters = rec.snapshot()["counters"]
        for key in keys:
            total = sum(stats[key] for stats in per_query)
            assert counters.get(f"smt.{key}", 0) == total, key
        lifetime = inc._sat
        for key in keys[:-1]:
            assert sum(s[key] for s in per_query[:-1]) == \
                getattr(lifetime, key), key
        assert counters["smt.propagations"] > 0
