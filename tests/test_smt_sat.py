"""Tests for the CDCL SAT core."""

import hashlib
import itertools
import random

import pytest

from repro.errors import SolverError
from repro.smt import SatSolver


def _lit(var: int, positive: bool) -> int:
    return var * 2 + (0 if positive else 1)


class TestBasics:
    def test_trivial_sat(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True)])
        model = solver.solve()
        assert model is not None and model[a] == 1

    def test_trivial_unsat(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True)])
        solver.add_clause([_lit(a, False)])
        assert solver.solve() is None

    def test_implication_chain(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(20)]
        solver.add_clause([_lit(variables[0], True)])
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([_lit(a, False), _lit(b, True)])  # a -> b
        model = solver.solve()
        assert all(model[v] == 1 for v in variables)

    def test_tautology_ignored(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(a, False)])
        assert solver.solve() is not None

    def test_duplicate_literals_deduped(self):
        solver = SatSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(a, True), _lit(b, False)])
        assert solver.solve() is not None

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.new_var()
        solver.add_clause([])
        assert solver.solve() is None


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3])
    def test_php_unsat(self, holes):
        """n+1 pigeons in n holes: classically UNSAT."""
        pigeons = holes + 1
        solver = SatSolver()
        var = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            solver.add_clause([_lit(var[p][h], True) for h in range(holes)])
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                solver.add_clause([_lit(var[p1][h], False), _lit(var[p2][h], False)])
        assert solver.solve() is None


class TestRandom3Sat:
    def test_models_satisfy_formulas(self):
        rng = random.Random(42)
        for _ in range(30):
            n_vars, n_clauses = 12, 30
            solver = SatSolver()
            variables = [solver.new_var() for _ in range(n_vars)]
            clauses = []
            for _ in range(n_clauses):
                chosen = rng.sample(variables, 3)
                clause = [_lit(v, rng.random() < 0.5) for v in chosen]
                clauses.append(clause)
                solver.add_clause(list(clause))
            model = solver.solve()
            if model is None:
                # Verify UNSAT by brute force (12 vars is cheap).
                for bits in range(1 << n_vars):
                    assignment = [(bits >> i) & 1 for i in range(n_vars)]
                    if all(
                        any(assignment[l >> 1] == (1 - (l & 1)) for l in clause)
                        for clause in clauses
                    ):
                        pytest.fail("solver said UNSAT but a model exists")
            else:
                for clause in clauses:
                    assert any(model[l >> 1] == 1 - (l & 1) for l in clause)


class TestIncremental:
    def test_blocking_clause_enumeration(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([_lit(a, True), _lit(b, True)])
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            seen.add((model[a], model[b]))
            solver.add_clause([
                _lit(a, model[a] == 0), _lit(b, model[b] == 0)
            ])
        assert seen == {(0, 1), (1, 0), (1, 1)}

    def test_conflict_budget(self):
        rng = random.Random(3)
        solver = SatSolver(max_conflicts=1)
        variables = [solver.new_var() for _ in range(40)]
        for _ in range(180):
            chosen = rng.sample(variables, 3)
            solver.add_clause([_lit(v, rng.random() < 0.5) for v in chosen])
        with pytest.raises(SolverError):
            for _ in range(200):
                if solver.solve() is None:
                    break
                # keep blocking models until the budget trips or UNSAT
                model = solver.solve()
                solver.add_clause([
                    _lit(v, model[v] == 0) for v in variables[:20]
                ])

    def test_clause_budget(self):
        solver = SatSolver(max_clauses=3)
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([_lit(a, True), _lit(b, True)])
        solver.add_clause([_lit(a, False), _lit(b, True)])
        solver.add_clause([_lit(a, True), _lit(b, False)])
        with pytest.raises(SolverError):
            solver.add_clause([_lit(a, False), _lit(b, False)])


# -- search identity ----------------------------------------------------------
#
# The solver's hot paths are tuned for speed, but every query must keep
# making the same decisions.  These pins were captured from the
# straightforward implementation (re-push every unwound variable, per-call
# literal helpers, per-conflict ``seen`` list); any change to the search
# order shows up here as a different effort tuple or model digest.


def _random_3sat(seed: int, n_vars: int = 150, n_clauses: int = 640):
    rng = random.Random(seed)
    return n_vars, [
        [_lit(v, rng.random() < 0.5) for v in rng.sample(range(n_vars), 3)]
        for _ in range(n_clauses)
    ]


def _pigeonhole(holes: int):
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h

    clauses = [[_lit(var(p, h), True) for h in range(holes)]
               for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([_lit(var(p1, h), False), _lit(var(p2, h), False)])
    return pigeons * holes, clauses


def _satisfies(model, clauses) -> bool:
    return all(any(model[l >> 1] == 1 - (l & 1) for l in c) for c in clauses)


def _effort(solver, model) -> tuple:
    digest = ("unsat" if model is None
              else hashlib.sha1(bytes(model)).hexdigest()[:16])
    return (solver.conflicts, solver.decisions, solver.restarts,
            solver.learnt, digest)


def _fresh(n_vars: int, clauses) -> SatSolver:
    solver = SatSolver()
    for _ in range(n_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver


GOLDEN_ONE_SHOT = {
    "3sat-150-seed1": (_random_3sat, 1,
                       (987, 1263, 5, 987, "cecde64c766bfdcb")),
    "3sat-150-seed4": (_random_3sat, 4, (2538, 2992, 13, 2537, "unsat")),
    "php6": (_pigeonhole, 6, (785, 1031, 5, 784, "unsat")),
}

#: (conflicts, decisions, restarts, learnt, model digest) after each
#: ``solve(assumptions=...)`` of :func:`_incremental_run`, lifetime counts.
GOLDEN_INCREMENTAL = [
    (5, 29, 0, 5, "76aafff0e4f558f2"),
    (51, 103, 0, 51, "f304472bf5ef0bd9"),
    (75, 166, 0, 75, "e3a0646f733bd1fa"),
    (102, 214, 0, 102, "5e849ebd85f53bb8"),
    (104, 233, 0, 104, "12a49b5c2f9be5b9"),
    (132, 280, 0, 132, "1618f94922edc34e"),
    (163, 336, 0, 163, "27149659d51cdab9"),
    (172, 369, 0, 172, "e7c1eeacd4581cdb"),
    (277, 485, 1, 277, "unsat"),
    (313, 548, 1, 313, "39624d407b1c8ba6"),
    (336, 595, 1, 336, "982bf0cd1d2a4982"),
    (343, 626, 1, 343, "2beab842d3f71253"),
    (351, 650, 1, 351, "1339b72be2151796"),
    (403, 709, 1, 403, "unsat"),
    (434, 764, 1, 434, "5c8bba2dbe4510f1"),
    (438, 785, 1, 438, "5e09aae1c2d29cc6"),
]


def _incremental_run():
    """Assumption queries with blocking clauses on one persistent solver;
    yields (effort tuple, model, assumptions, clauses so far)."""
    n_vars, clauses = _random_3sat(7, n_vars=100, n_clauses=380)
    rng = random.Random(8)
    solver = _fresh(n_vars, clauses)
    for _ in range(len(GOLDEN_INCREMENTAL)):
        assumptions = [_lit(v, rng.random() < 0.5)
                       for v in rng.sample(range(n_vars), 4)]
        model = solver.solve(assumptions=assumptions)
        yield _effort(solver, model), model, assumptions, list(clauses)
        if model is not None:
            block = [_lit(v, model[v] == 0) for v in range(20)]
            solver.add_clause(block)
            clauses.append(block)


class TestSearchIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ONE_SHOT))
    def test_one_shot_search_is_pinned(self, name):
        build, arg, expected = GOLDEN_ONE_SHOT[name]
        n_vars, clauses = build(arg)
        solver = _fresh(n_vars, clauses)
        model = solver.solve()
        if model is not None:
            assert _satisfies(model, clauses)
        assert _effort(solver, model) == expected

    def test_incremental_search_is_pinned(self):
        efforts = []
        for effort, model, assumptions, clauses in _incremental_run():
            efforts.append(effort)
            if model is not None:
                assert _satisfies(model, clauses)
                assert _satisfies(model, [[a] for a in assumptions])
        assert efforts == GOLDEN_INCREMENTAL


class TestPropagationCounter:
    def test_counts_each_propagated_trail_literal_once(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(20)]
        solver.add_clause([_lit(variables[0], True)])
        for a, b in zip(variables, variables[1:]):
            solver.add_clause([_lit(a, False), _lit(b, True)])
        assert solver.solve() is not None
        assert solver.propagations == 20
        # A re-solve re-propagates the root trail over new clauses.
        assert solver.solve() is not None
        assert solver.propagations == 40


class TestActivityRescale:
    def test_rescale_rebuilds_order_heap(self):
        """Past the 1e100 overflow every activity is scaled down, and
        every unassigned variable keeps a live heap entry at its
        current activity."""
        n_vars, clauses = _random_3sat(4)
        solver = _fresh(n_vars, clauses)
        solver._var_inc = 1e98  # overflow within a few dozen conflicts
        assert solver.solve() is None  # seed 4 is UNSAT (see GOLDEN)
        assert max(solver.activity) <= 1e100
        assert solver._var_inc < 1e98
        entries = set(solver._order)
        unassigned = [v for v in range(n_vars)
                      if solver.lit_values[2 * v] == -1]
        assert unassigned
        for var in unassigned:
            key = -solver.activity[var]
            assert solver._heap_key[var] == key
            assert (key, var) in entries

    def test_search_stays_sound_across_rescales(self):
        n_vars, clauses = _random_3sat(1)
        solver = _fresh(n_vars, clauses)
        solver._var_inc = 1e99
        model = solver.solve()
        assert solver._var_inc < 1e99
        assert model is not None and _satisfies(model, clauses)
