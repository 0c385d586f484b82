"""Execution-cache support for the symbolic explorer.

Two pieces, both serving the same goal — stop re-deriving work the
engine has already done once:

* :func:`compile_stmts` turns a straight-line IL statement list into a
  list of handler closures (one bound callable per statement, operand
  accessors specialized at compile time), so superblock execution
  dispatches ``handler(engine, state, tmps)`` instead of walking an
  ``isinstance`` chain per statement.

* :class:`PathSolver` keeps one persistent SAT instance + bit-blaster
  per engine.  Every distinct path constraint is Tseitin-encoded
  exactly once behind its own activation literal (sound because
  expressions are interned: ``id()`` is stable for the process
  lifetime), and a query assumes the activation literals of the
  querying state's constraints.  DFS siblings share encodings, learnt
  clauses and variable activity; budget staging mirrors
  :meth:`repro.smt.Solver.check` query for query.
"""

from __future__ import annotations

from .. import obs
from ..errors import SolverError
from ..ir import il
from ..ir.lifter import apply_binop, apply_fp_op
from ..smt import (
    BitBlaster,
    Expr,
    SatSolver,
    eval_expr,
    mk_const,
)
from ..smt.solver import CheckResult, report_sat_stats

MASK64 = (1 << 64) - 1


# -- compiled statement handlers -------------------------------------------

def _getter(src):
    """Operand reader specialized on the reference kind."""
    if isinstance(src, il.ConstRef):
        const = mk_const(src.value, 64)
        return lambda eng, state, tmps: const
    if isinstance(src, il.RegRef):
        index = src.index
        return lambda eng, state, tmps: state.regs[index]
    if isinstance(src, il.FRegRef):
        index = src.index
        return lambda eng, state, tmps: state.fregs[index]
    index = src.index
    return lambda eng, state, tmps: tmps[index]


def _setter(dst):
    """Operand writer specialized on the reference kind."""
    if isinstance(dst, il.RegRef):
        index = dst.index

        def set_reg(eng, state, tmps, expr):
            state.regs[index] = expr
        return set_reg
    if isinstance(dst, il.FRegRef):
        index = dst.index

        def set_freg(eng, state, tmps, expr):
            state.fregs[index] = expr
        return set_freg
    index = dst.index

    def set_tmp(eng, state, tmps, expr):
        tmps[index] = expr
    return set_tmp


def _c_move(stmt):
    get, put = _getter(stmt.src), _setter(stmt.dst)

    def h(eng, state, tmps):
        put(eng, state, tmps, get(eng, state, tmps))
    return h


def _c_binop(stmt):
    get_a, get_b, put = _getter(stmt.a), _getter(stmt.b), _setter(stmt.dst)
    op, set_flags = stmt.op, stmt.set_flags

    def h(eng, state, tmps):
        result = eng._binop(state, op, get_a(eng, state, tmps),
                            get_b(eng, state, tmps))
        if set_flags:
            state.flags = ("logic", result, None)
        put(eng, state, tmps, result)
    return h


def _c_unop(stmt):
    get, put = _getter(stmt.a), _setter(stmt.dst)
    set_flags = stmt.set_flags
    ones = mk_const(MASK64, 64)

    def h(eng, state, tmps):
        result = apply_binop("xor", get(eng, state, tmps), ones)
        if set_flags:
            state.flags = ("logic", result, None)
        put(eng, state, tmps, result)
    return h


def _c_lea(stmt):
    get, put = _getter(stmt.base), _setter(stmt.dst)
    disp = mk_const(stmt.disp, 64)

    def h(eng, state, tmps):
        put(eng, state, tmps, apply_binop("add", get(eng, state, tmps), disp))
    return h


def _c_load(stmt):
    get, put = _getter(stmt.addr), _setter(stmt.dst)
    width, signed = stmt.width, stmt.signed

    def h(eng, state, tmps):
        put(eng, state, tmps,
            eng._load(state, get(eng, state, tmps), width, signed))
    return h


def _c_store(stmt):
    get_addr, get_val = _getter(stmt.addr), _getter(stmt.value)
    width = stmt.width

    def h(eng, state, tmps):
        eng._store(state, get_addr(eng, state, tmps),
                   get_val(eng, state, tmps), width)
    return h


def _c_setflags(stmt):
    get_a, get_b = _getter(stmt.a), _getter(stmt.b)
    kind = stmt.kind

    def h(eng, state, tmps):
        state.flags = (kind, get_a(eng, state, tmps), get_b(eng, state, tmps))
    return h


def _c_push(stmt):
    get = _getter(stmt.src)

    def h(eng, state, tmps):
        value = get(eng, state, tmps)
        sp = eng._conc_sp(state)
        state.regs[15] = mk_const((sp - 8) & MASK64, 64)
        state.write_concrete_mem(sp - 8, value, 8)
    return h


def _c_pop(stmt):
    put = _setter(stmt.dst)

    def h(eng, state, tmps):
        sp = eng._conc_sp(state)
        value = state.read_concrete_mem(sp, 8)
        state.regs[15] = mk_const((sp + 8) & MASK64, 64)
        put(eng, state, tmps, value)
    return h


def _c_fpop(stmt):
    getters = [_getter(s) for s in stmt.srcs]
    put = _setter(stmt.dst)
    op = stmt.op

    def h(eng, state, tmps):
        args = [g(eng, state, tmps) for g in getters]
        put(eng, state, tmps, apply_fp_op(op, args))
    return h


def _c_fpflags(stmt):
    get_a, get_b = _getter(stmt.a), _getter(stmt.b)
    kind = stmt.kind

    def h(eng, state, tmps):
        state.flags = (kind, get_a(eng, state, tmps), get_b(eng, state, tmps))
    return h


_COMPILERS = {
    il.Move: _c_move,
    il.BinOp: _c_binop,
    il.UnOp: _c_unop,
    il.Lea: _c_lea,
    il.Load: _c_load,
    il.Store: _c_store,
    il.SetFlags: _c_setflags,
    il.Push: _c_push,
    il.Pop: _c_pop,
    il.FpOp: _c_fpop,
    il.FpFlags: _c_fpflags,
}


def compile_stmts(stmts) -> list | None:
    """Handler closures for a straight-line statement list.

    Returns ``None`` when any statement needs the generic
    per-instruction path (control flow, syscalls, division guards).
    """
    handlers = []
    for stmt in stmts:
        compiler = _COMPILERS.get(type(stmt))
        if compiler is None:
            return None
        handlers.append(compiler(stmt))
    return handlers


# -- per-engine solving front-end -------------------------------------------

class PathSolver:
    """The engine's solver front-end: satisfiability checks on fresh
    instances, symbolic-read enumeration on one shared instance that
    follows the DFS path.

    Expressions are interned (structural equality is identity, ``id()``
    is stable for the process lifetime), which buys three things here:

    * an enumeration is fully determined by the identity tuple of the
      *relevant* path constraints (see :meth:`_slice`) and the address
      expression, so repeats are served from a memo;
    * a state's constraint list extends its ancestors' element-for-
      element, so the enumeration instance can keep its asserted prefix
      across queries along one DFS dive and only re-blast the delta --
      it is rebuilt from scratch when exploration backtracks to a
      diverging sibling (asserting a dead branch's constraints into a
      live instance would be unsound);
    * per-expression variable sets memoize by ``id``.
    """

    def __init__(self, policy):
        self.max_conflicts = policy.solver_conflicts
        self.max_clauses = policy.solver_clauses
        self.max_nodes = policy.solver_nodes
        #: (sliced constraint id tuple, id(addr), limit) -> values | None.
        self._enum_memo: dict[tuple, list[int] | None] = {}
        #: Strong refs keeping every memo key's exprs interned-alive.
        self._enum_refs: list = []
        #: id(expr) -> frozenset of variable names (exprs are immutable).
        self._vars_memo: dict[int, frozenset] = {}
        self._vars_refs: list[Expr] = []
        # The enumeration instance and the (ordered) constraints it has
        # permanently asserted; rebuilt when the path diverges.
        self._enum_sat: SatSolver | None = None
        self._enum_blaster: BitBlaster | None = None
        self._enum_asserted: list[Expr] = []
        #: The instance's counters as of its last report (see
        #: :func:`repro.smt.solver.report_sat_stats`).
        self._enum_seen: dict[str, int] = {}

    def _vars_of(self, expr: Expr) -> frozenset:
        key = id(expr)
        hit = self._vars_memo.get(key)
        if hit is None:
            hit = frozenset(expr.variables())
            self._vars_memo[key] = hit
            self._vars_refs.append(expr)
        return hit

    def _slice(self, constraints: list[Expr], addr: Expr) -> list[Expr]:
        """The constraints transitively sharing variables with *addr*.

        Constraint-independence slicing (angr's trick): the feasible
        values of ``addr`` are unaffected by constraints over disjoint
        variables, provided the rest of the path condition is
        satisfiable -- which the explorer guarantees (every constraint
        is added with a witnessing model in hand).
        """
        needed = set(self._vars_of(addr))
        pending = [(c, self._vars_of(c)) for c in constraints
                   if not c.is_const]
        relevant: set[int] = set()
        while True:
            added = False
            rest = []
            for c, cv in pending:
                if cv & needed:
                    relevant.add(id(c))
                    needed |= cv
                    added = True
                else:
                    rest.append((c, cv))
            if not added:
                break
            pending = rest
        return [c for c in constraints if id(c) in relevant]

    def check(self, constraints: list[Expr], extra: list[Expr],
              tag=None) -> CheckResult:
        """Satisfiability of *constraints* + *extra* (fresh instance)."""
        from ..smt import Solver

        solver = Solver(self.max_conflicts, self.max_clauses, self.max_nodes)
        solver.extend(constraints)
        return solver.check(extra, tag=tag)

    def _enum_instance(self, constraints: list[Expr]):
        """The enumeration instance with *constraints* asserted.

        Reuses the live instance when *constraints* extends its asserted
        prefix (identity-wise); otherwise the DFS backtracked past the
        prefix and the instance is rebuilt.  The clause budget gets 4x
        headroom because the instance hosts a whole dive's constraints,
        not one query's.
        """
        asserted = self._enum_asserted
        sat = self._enum_sat
        if sat is not None:
            n = len(asserted)
            if n > len(constraints):
                sat = None
            else:
                for i in range(n):
                    if constraints[i] is not asserted[i]:
                        sat = None
                        break
        if sat is None:
            sat = SatSolver(self.max_conflicts, self.max_clauses * 4)
            self._enum_sat = sat
            self._enum_blaster = BitBlaster(sat)
            self._enum_asserted = asserted = []
            self._enum_seen = {}
            obs.count("cache.enum_rebuilds")
        blaster = self._enum_blaster
        for c in constraints[len(asserted):]:
            blaster.assert_true(c)
            asserted.append(c)
        return sat, blaster

    def enumerate_values(self, constraints: list[Expr], addr: Expr,
                         limit: int, model: dict | None = None) -> list[int] | None:
        """Feasible values of *addr* under *constraints* (<= *limit*).

        Misses run on the shared enumeration instance: only the delta
        since the last query on this path is blasted, each found value
        is excluded with a blocking clause over the address bits, and
        the blocking clauses are guarded by a per-enumeration activation
        literal that is retired afterwards (so they never leak into
        later enumerations).  A state *model* satisfying the constraints
        seeds the first value without a solver call -- the common
        pinned-address read then costs a single UNSAT proof.  ``None``
        means more than *limit* values.  The memo is keyed on the slice
        of constraints relevant to the address, so sibling states whose
        extra constraints don't touch it share one enumeration.
        """
        sliced = self._slice(constraints, addr)
        key = (tuple(id(c) for c in sliced), id(addr), limit)
        hit = self._enum_memo.get(key, _MISS)
        if hit is not _MISS:
            obs.count("cache.enum_hits")
            return None if hit is None else list(hit)

        sat, blaster = self._enum_instance(constraints)
        values: list[int] | None = []
        query_act = None
        try:
            addr_bits = blaster.blast(addr)
            query_act = sat.new_var() * 2
            if model is not None and self._model_holds(constraints, model):
                values.append(eval_expr(addr, model) & ((1 << addr.width) - 1))
                sat.add_clause([query_act ^ 1] + [
                    lit ^ ((values[0] >> i) & 1)
                    for i, lit in enumerate(addr_bits)
                ])
            while len(values) <= limit:
                found = sat.solve([query_act])
                if found is None:
                    break
                value = 0
                for i, lit in enumerate(addr_bits):
                    bit = found[lit >> 1] ^ (lit & 1)
                    value |= (bit & 1) << i
                values.append(value)
                # Block this value: at least one address bit must
                # differ (clause void once the activation retires).
                sat.add_clause([query_act ^ 1] + [
                    lit ^ ((value >> i) & 1)
                    for i, lit in enumerate(addr_bits)
                ])
            else:
                values = None  # too many values
        finally:
            if query_act is not None:
                sat.add_clause([query_act ^ 1])
            report_sat_stats(sat, blaster, since=self._enum_seen)
        self._enum_memo[key] = values
        self._enum_refs.append((tuple(sliced), addr))
        return None if values is None else list(values)

    @staticmethod
    def _model_holds(constraints: list[Expr], model: dict) -> bool:
        try:
            return all(bool(eval_expr(c, model)) for c in constraints)
        except SolverError:
            return False


_MISS = object()
