"""The static symbolic executor (AngrX): whole-program lift + dynamic
symbolic execution over REX IL, with forking, directed search toward the
``bomb`` symbol, simprocedures (no-lib mode) and the partial syscall
model.

The engine's report carries *claimed* inputs only; the tools layer
replays each claim on the concrete VM before granting a success —
exactly the paper's criterion ("if the bomb can be triggered by a
correct test case").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .. import obs
from ..obs import profile, provenance
from ..binfmt import Image
from ..errors import DiagnosticKind, DiagnosticLog, EngineError, SolverError
from ..ir import il, superblock
from ..ir.lifter import apply_binop, apply_fp_op, flag_condition
from ..isa import Instruction, decode
from ..smt import (
    Expr,
    Solver,
    eval_expr,
    mk_bool_not,
    mk_bool_or,
    mk_const,
    mk_eq,
    mk_var,
)
from ..vm.machine import STACK_TOP
from .cache import PathSolver, compile_stmts
from .policy import SymexPolicy
from .simprocedures import SIMPROCEDURES
from .state import SymState
from .syscall_model import SyscallModel

MASK64 = (1 << 64) - 1

_MISSING = object()


class EngineAbort(Exception):
    """The whole analysis dies (the paper's E outcome)."""

    def __init__(self, kind: DiagnosticKind, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


@dataclass
class SymexReport:
    """Result of one directed symbolic-execution run."""

    tool: str
    goal_claimed: bool = False
    claimed_inputs: list[list[bytes]] = field(default_factory=list)
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    aborted: str | None = None
    states_explored: int = 0
    steps: int = 0
    queries: int = 0


class AngrEngine:
    """Directed symbolic execution on a REXF image."""

    def __init__(self, image: Image, policy: SymexPolicy,
                 diagnostics: DiagnosticLog | None = None):
        self.image = image
        self.policy = policy
        self.diags = diagnostics if diagnostics is not None else DiagnosticLog()
        self.syscalls = SyscallModel(self)
        self._decode_cache: dict[int, Instruction] = {}
        self._code_blob: dict[int, bytes] = {}
        # Shared execution cache: lifted IL and superblocks live for the
        # process, keyed by the image digest; compiled handler lists are
        # engine-local (they close over nothing but are truncated at this
        # engine's hook addresses).
        self._cache = superblock.cache_for(image)
        self._compiled: dict[int, list | None] = {}
        self._solver = PathSolver(policy)
        self._sb_hits = 0
        self._sb_misses = 0
        # Per-PC symbolic step tally; exists only while an attribution
        # profiler is installed so the step loop pays one None check.
        self._prof_pcs: dict[int, int] | None = \
            {} if profile.active() is not None else None
        self._fresh = 0
        self.computation_vars: set[str] = set()
        self.input_vars: set[str] = set()
        self.var_layout: dict[str, tuple[int, int]] = {}
        self.seed_argv: list[bytes] = []
        self.queries = 0
        self.resolutions = 0
        self.claim_env = None
        # No-lib hooks by address.
        self.hooks: dict[int, object] = {}
        self.env_requirements: dict[str, object] = {}
        self.render_requests: dict[str, int] = {}   # fp var -> argv index
        self._argv_addrs: dict[int, int] = {}       # region addr -> argv index
        # Sandshrew mode: opaque externals execute concretely in scratch
        # machines; the tools layer reads ``opaque_concretized`` to decide
        # whether a bounded concrete search is warranted.
        self.opaque_runner = None
        self.opaque_concretized = False
        if not policy.with_libs:
            table = SIMPROCEDURES
            table_name = getattr(policy, "simproc_table", "default")
            if table_name == "rexx":
                from .rexx_procs import REXX_SIMPROCEDURES

                table = REXX_SIMPROCEDURES
            elif table_name == "sandshrew":
                from .sandshrew_procs import SANDSHREW_SIMPROCEDURES, OpaqueRunner

                table = SANDSHREW_SIMPROCEDURES
                self.opaque_runner = OpaqueRunner(image)
            for name, symbol in image.lib_symbols().items():
                proc = table.get(name)
                if proc is not None:
                    self.hooks[symbol.addr] = proc

    # -- public ----------------------------------------------------------

    def explore(self, seed_argv: list[bytes], argv0: bytes = b"prog") -> SymexReport:
        """Directed search for the ``bomb`` symbol from a symbolic argv."""
        lifts_before = self._cache.fresh_lifts
        with obs.span("explore", tool=self.policy.name):
            report = self._explore(seed_argv, argv0)
        if self._prof_pcs:
            profile.record_pcs("explore", self._prof_pcs)
            self._prof_pcs = {}
        obs.count("symex.states", report.states_explored)
        obs.count("symex.steps", report.steps)
        obs.count("symex.queries", report.queries)
        obs.count("cache.superblock_hits", self._sb_hits)
        obs.count("cache.superblock_misses", self._sb_misses)
        fresh = self._cache.fresh_lifts - lifts_before
        if fresh:
            obs.count("lift.instructions", fresh)
        superblock.persist(self._cache)
        return report

    def _explore(self, seed_argv: list[bytes], argv0: bytes) -> SymexReport:
        report = SymexReport(tool=self.policy.name, diagnostics=self.diags)
        self.seed_argv = [argv0] + list(seed_argv)
        try:
            initial = self._initial_state()
        except EngineError as err:
            self.diags.events.append(err.diagnostic)
            report.aborted = err.diagnostic.detail
            return report

        import time as _time

        deadline = _time.monotonic() + self.policy.time_limit
        worklist: deque[SymState] = deque([initial])
        total_steps = 0
        states_seen = 1
        try:
            while worklist:
                if _time.monotonic() > deadline:
                    raise EngineAbort(
                        DiagnosticKind.RESOURCE_EXHAUSTED,
                        f"no result within the {self.policy.time_limit:.0f}s budget",
                    )
                if (total_steps > self.policy.max_total_steps
                        or states_seen > self.policy.max_states
                        or self.queries > self.policy.max_queries):
                    raise EngineAbort(
                        DiagnosticKind.RESOURCE_EXHAUSTED,
                        f"exploration budget exhausted "
                        f"(steps={total_steps}, states={states_seen}, "
                        f"queries={self.queries})",
                    )
                state = worklist.pop()  # DFS: dive on the newest fork
                forks = self._run_quantum(state)
                total_steps += state.steps
                state.steps = 0
                if forks:
                    obs.count("symex.states_forked", len(forks))
                for new_state in forks:
                    states_seen += 1
                    worklist.append(new_state)
                for candidate in ([state] + forks):
                    if candidate.goal:
                        claim = self._accept_goal(candidate)
                        if claim is None:
                            continue  # rejected; keep exploring
                        report.goal_claimed = True
                        report.claimed_inputs.append(claim)
                        report.states_explored = states_seen
                        report.steps = total_steps
                        report.queries = self.queries
                        return report
                if state.alive:
                    if forks:
                        worklist.insert(0, state)
                    else:
                        worklist.append(state)
                elif not state.goal:
                    obs.count("symex.states_pruned")
        except EngineAbort as err:
            self.diags.emit(err.kind, err.detail)
            report.aborted = err.detail
        except SolverError as err:
            self.diags.emit(DiagnosticKind.RESOURCE_EXHAUSTED, str(err))
            report.aborted = f"solver: {err}"
        except EngineError as err:
            self.diags.events.append(err.diagnostic)
            report.aborted = err.diagnostic.detail
        report.states_explored = states_seen
        report.steps = total_steps
        report.queries = self.queries
        return report

    # -- setup -------------------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}_{self._fresh}"

    def _initial_state(self) -> SymState:
        state = SymState(self.image)
        policy = self.policy
        sp = STACK_TOP
        state.set_reg(15, mk_const(sp, 64))
        cursor = STACK_TOP + 0x100
        str_addrs = []
        for k, seed in enumerate(self.seed_argv):
            str_addrs.append(cursor)
            self._argv_addrs[cursor] = k
            if k == 0:
                for i, byte in enumerate(seed):
                    state.write_byte(cursor + i, mk_const(byte, 8))
                state.write_byte(cursor + len(seed), mk_const(0, 8))
                cursor += len(seed) + 1
                continue
            width = policy.argv_bytes
            prev = None
            for i in range(width):
                name = f"arg{k}_{i}"
                var = mk_var(name, 8)
                self.var_layout[name] = (k, i)
                state.write_byte(cursor + i, var)
                state.model[name] = seed[i] if i < len(seed) else 0
                if prev is not None:
                    # NUL-contiguity: once the string ends, it stays ended.
                    state.add_constraint(
                        mk_bool_or(
                            mk_bool_not(mk_eq(prev, mk_const(0, 8))),
                            mk_eq(var, mk_const(0, 8)),
                        )
                    )
                prev = var
            state.write_byte(cursor + width, mk_const(0, 8))
            prov = provenance.active()
            if prov is not None:
                prov.introduce(
                    f"argv[{k}] declared symbolic: {width} byte(s) at "
                    f"0x{cursor:x} as arg{k}_0..arg{k}_{width - 1}")
            cursor += width + 1
        argv_base = (cursor + 7) & ~7
        for i, addr in enumerate(str_addrs):
            state.write_concrete_mem(argv_base + 8 * i, mk_const(addr, 64), 8)
        state.write_concrete_mem(argv_base + 8 * len(str_addrs), mk_const(0, 64), 8)
        state.set_reg(1, mk_const(len(self.seed_argv), 64))
        state.set_reg(2, mk_const(argv_base, 64))
        state.pc = self.image.entry
        return state

    def _claim(self, state: SymState) -> list[bytes]:
        """Build the claimed argv tail from the goal state's model."""
        args: list[bytes] = []
        rendered: dict[int, bytes] = {}
        for var, k in self.render_requests.items():
            if var in state.model:
                rendered[k] = _render_double(state.model[var])
        for k in range(1, len(self.seed_argv)):
            if k in rendered:
                args.append(rendered[k])
                continue
            raw = bytearray()
            for i in range(self.policy.argv_bytes):
                raw.append(state.model.get(f"arg{k}_{i}", 0) & 0xFF)
            nul = raw.find(b"\0")
            if nul >= 0:
                raw = raw[:nul]
            args.append(bytes(raw))
        return args

    # -- solving -----------------------------------------------------------------

    def _check(self, state: SymState, extra: list[Expr]):
        self.queries += 1
        solver = Solver(self.policy.solver_conflicts, self.policy.solver_clauses,
                        self.policy.solver_nodes)
        solver.extend(state.constraints)
        with obs.span("solve", pc=state.pc, tool=self.policy.name):
            return solver.check(extra, tag=(state.pc, "explore"))

    def _ensure_model(self, state: SymState) -> None:
        for c in state.constraints:
            if not state.model_satisfies(c):
                outcome = self._check(state, [])
                if outcome.sat:
                    state.model.update(outcome.model)
                return

    def _mark_level(self, state: SymState, expr: Expr) -> int:
        """Highest dereference level of any symbolic-read result in *expr*."""
        level = 0
        stack = [expr]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            level = max(level, state.read_marks.get(id(node), 0))
            stack.extend(node.args)
        return level

    def _contains_vars(self, expr: Expr, names: set[str]) -> bool:
        return bool(expr.variables() & names) if names else False

    def _concretize(self, state: SymState, expr: Expr, diag: DiagnosticKind,
                    detail: str, avoid_zero: bool = False) -> int:
        """Pin *expr* to its model value (the angr concretization move)."""
        value = eval_expr(expr, state.model) & MASK64
        if avoid_zero and value == 0:
            outcome = self._check(
                state, [mk_bool_not(mk_eq(expr, mk_const(0, expr.width)))]
            )
            if outcome.sat:
                state.model.update(outcome.model)
                value = eval_expr(expr, state.model) & MASK64
        self.diags.emit(diag, detail)
        state.add_constraint(mk_eq(expr, mk_const(value, expr.width)))
        return value

    def _resolve_read_values(self, state: SymState, addr: Expr) -> list[int] | None:
        """Enumerate feasible values of a symbolic address (<= limit).

        The engine's shared :class:`PathSolver` instance does the work:
        the path condition and the address are encoded at most once for
        the whole exploration; each found value is excluded with a
        blocking clause guarded by a per-enumeration activation literal.
        """
        limit = self.policy.mem_resolve_limit
        self.queries += 1
        obs.count("symex.enum_queries")
        return self._solver.enumerate_values(state.constraints, addr, limit,
                                             model=state.model)

    # -- execution ---------------------------------------------------------------------

    def _fetch(self, pc: int) -> Instruction:
        instr = self._decode_cache.get(pc)
        if instr is None:
            if not self.image.is_code_addr(pc):
                raise EngineAbort(
                    DiagnosticKind.ENGINE_CRASH,
                    f"execution left mapped code at 0x{pc:x}",
                )
            blob = self._read_code(pc, 16)
            instr = decode(blob, pc)
            self._decode_cache[pc] = instr
        return instr

    def _read_code(self, addr: int, size: int) -> bytes:
        out = bytearray(size)
        for sec in self.image.sections:
            lo = max(sec.vaddr, addr)
            hi = min(sec.vaddr + len(sec.data), addr + size)
            if lo < hi:
                out[lo - addr : hi - addr] = sec.data[lo - sec.vaddr : hi - sec.vaddr]
        return bytes(out)

    def _block_fetch(self, pc: int) -> Instruction | None:
        """Non-raising fetch used while *building* superblocks: a pc
        outside mapped code just ends the block (the generic path raises
        if execution actually reaches it)."""
        if not self.image.is_code_addr(pc):
            return None
        try:
            return self._fetch(pc)
        except EngineAbort:
            return None

    def _block_at(self, pc: int) -> list | None:
        """Compiled handler entries for the superblock at *pc*, or None.

        Entries are ``(pc, next_pc, handlers)`` triples; the list is
        truncated before the first hooked address (no-lib mode) so the
        per-instruction path runs the simprocedure.
        """
        compiled = self._compiled.get(pc, _MISSING)
        if compiled is not _MISSING:
            return compiled
        if pc not in self._cache.blocks:
            self._sb_misses += 1  # shared-cache build, not a local recompile
        block = self._cache.block_at(pc, self._block_fetch)
        entries: list | None = None
        if block is not None:
            hooks = self.hooks
            acc = []
            for epc, enext, stmts in block.entries:
                if hooks and epc in hooks:
                    break
                handlers = compile_stmts(stmts)
                if handlers is None:
                    break
                acc.append((epc, enext, handlers))
            entries = acc or None
        self._compiled[pc] = entries
        return entries

    def _exec_block(self, state: SymState, entries: list, budget: int) -> int:
        """Dispatch up to *budget* cached instructions; returns how many
        actually ran (a dying state stops the block mid-way)."""
        executed = 0
        pcs = self._prof_pcs
        for pc, next_pc, handlers in entries:
            if executed >= budget:
                break
            if pcs is not None:
                pcs[pc] = pcs.get(pc, 0) + 1
            tmps: dict[int, Expr] = {}
            for handler in handlers:
                handler(self, state, tmps)
                if not state.alive:
                    state.steps += 1
                    return executed + 1
            state.steps += 1
            executed += 1
            state.pc = next_pc
        return executed

    def _run_quantum(self, state: SymState) -> list[SymState]:
        forks: list[SymState] = []
        remaining = self.policy.step_quantum
        while remaining > 0:
            if not state.alive or state.goal:
                break
            hook = self.hooks.get(state.pc)
            if hook is not None:
                self._run_hook(state, hook)
                remaining -= 1
                continue
            entries = self._block_at(state.pc)
            if entries is not None:
                self._sb_hits += 1
                remaining -= self._exec_block(state, entries, remaining)
                continue
            pcs = self._prof_pcs
            if pcs is not None:
                pcs[state.pc] = pcs.get(state.pc, 0) + 1
            instr = self._fetch(state.pc)
            new_forks = self._execute(state, instr)
            state.steps += 1
            remaining -= 1
            if new_forks:
                forks.extend(new_forks)
                break  # let the scheduler rotate after a fork
        return forks

    def _run_hook(self, state: SymState, proc) -> None:
        obs.count("symex.simproc_hits")
        args = [state.get_reg(i) for i in range(1, 7)]
        ret = proc(self, state, args)
        if isinstance(ret, tuple) and ret[0] == "jump":
            # The simprocedure redirects control (e.g. inlining a thread
            # body); the target function's own RET uses the caller's
            # return slot.
            state.pc = ret[1]
            state.steps += 1
            return
        if ret is not None:
            state.set_reg(0, ret)
        # Simulate the RET the hooked function would perform.
        sp_expr = state.get_reg(15)
        sp = sp_expr.value if sp_expr.is_const else eval_expr(sp_expr, state.model)
        ret_addr = state.read_concrete_mem(sp, 8)
        if not ret_addr.is_const:
            raise EngineAbort(DiagnosticKind.ENGINE_CRASH, "symbolic return address")
        state.set_reg(15, mk_const((sp + 8) & MASK64, 64))
        state.pc = ret_addr.value
        state.steps += 1

    # -- IL interpretation ------------------------------------------------------------

    def _execute(self, state: SymState, instr: Instruction) -> list[SymState]:
        tmps: dict[int, Expr] = {}
        next_pc = instr.next_addr
        forks: list[SymState] = []

        stmts, _fresh = self._cache.lift_for(instr)
        for stmt in stmts:
            if isinstance(stmt, il.Move):
                self._set(state, tmps, stmt.dst, self._get(state, tmps, stmt.src))
            elif isinstance(stmt, il.BinOp):
                a = self._get(state, tmps, stmt.a)
                b = self._get(state, tmps, stmt.b)
                result = self._binop(state, stmt.op, a, b)
                if stmt.set_flags:
                    state.flags = ("logic", result, None)
                self._set(state, tmps, stmt.dst, result)
            elif isinstance(stmt, il.UnOp):
                a = self._get(state, tmps, stmt.a)
                result = apply_binop("xor", a, mk_const(MASK64, 64))
                if stmt.set_flags:
                    state.flags = ("logic", result, None)
                self._set(state, tmps, stmt.dst, result)
            elif isinstance(stmt, il.Lea):
                base = self._get(state, tmps, stmt.base)
                self._set(state, tmps, stmt.dst,
                          apply_binop("add", base, mk_const(stmt.disp, 64)))
            elif isinstance(stmt, il.Load):
                addr = self._get(state, tmps, stmt.addr)
                self._set(state, tmps, stmt.dst,
                          self._load(state, addr, stmt.width, stmt.signed))
            elif isinstance(stmt, il.Store):
                addr = self._get(state, tmps, stmt.addr)
                value = self._get(state, tmps, stmt.value)
                self._store(state, addr, value, stmt.width)
            elif isinstance(stmt, il.SetFlags):
                a = self._get(state, tmps, stmt.a)
                b = self._get(state, tmps, stmt.b)
                state.flags = (stmt.kind, a, b)
            elif isinstance(stmt, il.CondBranch):
                return self._cond_branch(state, stmt, instr)
            elif isinstance(stmt, il.Jump):
                target = self._get(state, tmps, stmt.target)
                if not target.is_const and self.policy.enumerate_jumps:
                    return self._enumerated_jump(state, target)
                next_pc = self._jump_target(state, target)
            elif isinstance(stmt, il.Call):
                target = self._get(state, tmps, stmt.target)
                resolved = self._jump_target(state, target)
                sp = self._conc_sp(state)
                state.set_reg(15, mk_const((sp - 8) & MASK64, 64))
                state.write_concrete_mem(sp - 8, mk_const(stmt.return_addr, 64), 8)
                next_pc = resolved
            elif isinstance(stmt, il.Ret):
                sp = self._conc_sp(state)
                target = state.read_concrete_mem(sp, 8)
                state.set_reg(15, mk_const((sp + 8) & MASK64, 64))
                next_pc = self._jump_target(state, target)
            elif isinstance(stmt, il.Push):
                value = self._get(state, tmps, stmt.src)
                sp = self._conc_sp(state)
                state.set_reg(15, mk_const((sp - 8) & MASK64, 64))
                state.write_concrete_mem(sp - 8, value, 8)
            elif isinstance(stmt, il.Pop):
                sp = self._conc_sp(state)
                value = state.read_concrete_mem(sp, 8)
                state.set_reg(15, mk_const((sp + 8) & MASK64, 64))
                self._set(state, tmps, stmt.dst, value)
            elif isinstance(stmt, il.Syscall):
                self.syscalls.dispatch(state)
                if not state.alive:
                    return forks
            elif isinstance(stmt, il.Halt):
                state.alive = False
                return forks
            elif isinstance(stmt, il.FpOp):
                args = [self._get(state, tmps, s) for s in stmt.srcs]
                self._set(state, tmps, stmt.dst, apply_fp_op(stmt.op, args))
            elif isinstance(stmt, il.FpFlags):
                a = self._get(state, tmps, stmt.a)
                b = self._get(state, tmps, stmt.b)
                state.flags = (stmt.kind, a, b)
            elif isinstance(stmt, il.DivGuard):
                divisor = self._get(state, tmps, stmt.divisor)
                if (not divisor.is_const and self.policy.model_signals
                        and state.sig_handler is not None):
                    fault = self._fork_fault_state(state, divisor, instr)
                    if fault is not None:
                        forks.append(fault)
                    state.add_constraint(
                        mk_bool_not(mk_eq(divisor, mk_const(0, 64)))
                    )
                    self._ensure_model(state)
                elif not divisor.is_const:
                    self.diags.emit(
                        DiagnosticKind.CONCRETIZED_ENV,
                        "division fault edge dropped (divisor constrained nonzero)",
                        instr.addr,
                    )
                    state.add_constraint(
                        mk_bool_not(mk_eq(divisor, mk_const(0, 64)))
                    )
                    self._ensure_model(state)
                elif divisor.value == 0:
                    # Concrete fault with no signal modeling: dead path.
                    self.diags.emit(
                        DiagnosticKind.CONCRETIZED_ENV,
                        "concrete division fault; state killed",
                        instr.addr,
                    )
                    state.alive = False
                    return forks
            else:  # pragma: no cover
                raise EngineAbort(DiagnosticKind.ENGINE_CRASH,
                                  f"unhandled IL stmt {stmt}")
            if not state.alive:
                return forks
        state.pc = next_pc
        return forks

    # -- operand plumbing ---------------------------------------------------------

    def _get(self, state: SymState, tmps: dict, src) -> Expr:
        if isinstance(src, il.ConstRef):
            return mk_const(src.value, 64)
        if isinstance(src, il.RegRef):
            return state.regs[src.index]
        if isinstance(src, il.FRegRef):
            return state.fregs[src.index]
        return tmps[src.index]

    def _set(self, state: SymState, tmps: dict, dst, expr: Expr) -> None:
        if isinstance(dst, il.RegRef):
            state.regs[dst.index] = expr
        elif isinstance(dst, il.FRegRef):
            state.fregs[dst.index] = expr
        else:
            tmps[dst.index] = expr

    def _conc_sp(self, state: SymState) -> int:
        sp = state.get_reg(15)
        if sp.is_const:
            return sp.value
        return self._concretize(
            state, sp, DiagnosticKind.CONCRETIZED_READ,
            "symbolic stack pointer concretized",
        )

    # -- operations ------------------------------------------------------------------

    def _binop(self, state: SymState, op: str, a: Expr, b: Expr) -> Expr:
        try:
            return apply_binop(op, a, b)
        except SolverError:
            if op in ("sdiv", "srem", "udiv", "urem") and not b.is_const:
                value = self._concretize(
                    state, b, DiagnosticKind.CONCRETIZED_ENV,
                    "symbolic divisor concretized", avoid_zero=True,
                )
                if value == 0:
                    state.alive = False
                    return mk_const(0, 64)
                return apply_binop(op, a, mk_const(value, b.width))
            raise

    def _load(self, state: SymState, addr: Expr, width: int, signed: bool) -> Expr:
        from ..smt import mk_sext, mk_zext

        if addr.is_const:
            value = state.read_concrete_mem(addr.value, width)
        else:
            value = self._symbolic_read(state, addr, width)
        if width < 8:
            value = mk_sext(value, 64) if signed else mk_zext(value, 64)
        return value

    def _symbolic_read(self, state: SymState, addr: Expr, width: int) -> Expr:
        level = self._mark_level(state, addr)
        if level >= self.policy.sym_mem_levels:
            # One dereference level too deep for the memory map: the
            # inner array never enters the constraint model — the
            # paper's Es3 on the two-level bombs — and the read pins to
            # the cached model's address.
            target = self._concretize(
                state, addr, DiagnosticKind.UNMODELED_MEMORY_REF,
                "second-level symbolic dereference not modeled; concretized",
            )
            return state.read_concrete_mem(target, width)
        if state.resolutions >= self.policy.max_resolutions:
            target = self._concretize(
                state, addr, DiagnosticKind.CONCRETIZED_READ,
                "symbolic-read resolution budget spent; address concretized",
            )
            return state.read_concrete_mem(target, width)
        values = self._resolve_read_values(state, addr)
        state.resolutions += 1
        if values is None:
            target = self._concretize(
                state, addr, DiagnosticKind.CONCRETIZED_READ,
                "symbolic address resolves to too many cells; concretized",
            )
            return state.read_concrete_mem(target, width)
        from ..smt import mk_ite

        result = state.read_concrete_mem(values[0], width)
        for value in values[1:]:
            result = mk_ite(
                mk_eq(addr, mk_const(value, 64)),
                state.read_concrete_mem(value, width),
                result,
            )
        state.read_marks[id(result)] = level + 1
        return result

    def _store(self, state: SymState, addr: Expr, value: Expr, width: int) -> None:
        if addr.is_const:
            state.write_concrete_mem(addr.value, value, width)
            return
        target = self._concretize(
            state, addr, DiagnosticKind.CONCRETIZED_READ,
            "symbolic store address concretized",
        )
        state.write_concrete_mem(target, value, width)

    def _jump_target(self, state: SymState, target: Expr) -> int:
        if target.is_const:
            return target.value
        if self._mark_level(state, target) >= self.policy.sym_mem_levels:
            # Jump through a symbolically-indexed address table: beyond
            # the model (Es3 on sj_jump_array); pin to the model value.
            return self._concretize(
                state, target, DiagnosticKind.UNMODELED_MEMORY_REF,
                "jump through a symbolically-indexed address table concretized",
            )
        return self._concretize(
            state, target, DiagnosticKind.CONCRETIZED_JUMP,
            "symbolic jump target concretized to the cached model's value",
        )

    def _cond_branch(self, state: SymState, stmt: il.CondBranch,
                     instr: Instruction) -> list[SymState]:
        if state.flags is None:
            raise EngineAbort(DiagnosticKind.ENGINE_CRASH,
                              "branch with undefined flags")
        kind, a, b = state.flags
        cond = flag_condition(kind, a, b, stmt.cc)
        taken_pc, fall_pc = stmt.target, instr.next_addr

        if cond.is_const:
            state.pc = taken_pc if cond.value else fall_pc
            return []

        if cond.contains_fp():
            return self._fp_branch(state, cond, taken_pc, fall_pc, instr.addr)

        follows = state.model_satisfies(cond)
        primary_cond = cond if follows else mk_bool_not(cond)
        other_cond = mk_bool_not(cond) if follows else cond
        primary_pc = taken_pc if follows else fall_pc
        other_pc = fall_pc if follows else taken_pc

        forks: list[SymState] = []
        outcome = self._check(state, [other_cond])
        if outcome.sat:
            fork = state.fork()
            fork.add_constraint(other_cond)
            fork.model = {**state.model, **outcome.model}
            fork.pc = other_pc
            self._ensure_model(fork)
            forks.append(fork)
        state.add_constraint(primary_cond)
        state.pc = primary_pc
        return forks

    def _fp_branch(self, state: SymState, cond: Expr, taken_pc: int,
                   fall_pc: int, pc: int) -> list[SymState]:
        """A branch whose condition needs FP theory."""
        if self.policy.with_libs:
            # Executing FP-heavy library code symbolically is where the
            # 2016-era engine falls over (the paper's E cells).
            raise EngineAbort(
                DiagnosticKind.ENGINE_CRASH,
                "floating-point constraints from executed library code",
            )
        if self._contains_vars(cond, self.computation_vars):
            self.diags.emit(
                DiagnosticKind.CONCRETIZED_ENV,
                "branch depends on an invented (hooked) value; explored unconstrained",
                pc,
            )
        else:
            self.diags.emit(
                DiagnosticKind.UNSUPPORTED_THEORY,
                "floating-point condition outside the solver's theories; "
                "explored unconstrained",
                pc,
            )
        state.fp_dropped = True
        fork = state.fork()
        fork.fp_dropped = True
        fork.pc = fall_pc
        state.pc = taken_pc
        if self.policy.fp_search:
            # Keep the conditions as data for the local-search solver.
            state.fp_constraints.append(cond)
            fork.fp_constraints.append(mk_bool_not(cond))
        return [fork]


    # -- extension capabilities (REXX) -------------------------------------------

    def _enumerated_jump(self, state: SymState, target: Expr) -> list[SymState]:
        """Fork one state per feasible target of a symbolic jump."""
        values = self._resolve_read_values(state, target)
        if values is None:
            self.diags.emit(
                DiagnosticKind.CONCRETIZED_JUMP,
                "symbolic jump with too many targets; concretized",
            )
            state.pc = self._concretize(
                state, target, DiagnosticKind.CONCRETIZED_JUMP,
                "symbolic jump target concretized",
            )
            return []
        code_values = [v for v in values if self.image.is_code_addr(v)]
        if not code_values:
            state.alive = False
            return []
        forks: list[SymState] = []
        for value in code_values[1:]:
            fork = state.fork()
            fork.add_constraint(mk_eq(target, mk_const(value, 64)))
            fork.pc = value
            self._ensure_model(fork)
            forks.append(fork)
        state.add_constraint(mk_eq(target, mk_const(code_values[0], 64)))
        state.pc = code_values[0]
        self._ensure_model(state)
        return forks

    def _fork_fault_state(self, state: SymState, divisor: Expr,
                          instr) -> SymState | None:
        """Model the division-fault edge: divisor == 0 jumps to the
        registered handler, which returns past the faulting instruction."""
        zero_cond = mk_eq(divisor, mk_const(0, 64))
        outcome = self._check(state, [zero_cond])
        if not outcome.sat:
            return None
        fault = state.fork()
        fault.add_constraint(zero_cond)
        fault.model = {**state.model, **outcome.model}
        self._ensure_model(fault)
        sp_expr = fault.get_reg(15)
        sp = sp_expr.value if sp_expr.is_const else eval_expr(sp_expr, fault.model)
        # The handler returns directly past the faulting instruction
        # (register restoration is approximated: handlers here only
        # mutate memory, which persists anyway).
        fault.set_reg(15, mk_const((sp - 8) & MASK64, 64))
        fault.write_concrete_mem(sp - 8, mk_const(instr.next_addr, 64), 8)
        fault.set_reg(1, mk_const(8, 64))
        fault.pc = fault.sig_handler
        return fault

    def _accept_goal(self, state: SymState) -> list[bytes] | None:
        """Vet a goal state and build the claimed input (and env)."""
        policy = self.policy
        if policy.honest_claims:
            invented = set()
            for c in state.constraints + state.fp_constraints:
                invented |= c.variables() & self.computation_vars
            if invented:
                self.diags.emit(
                    DiagnosticKind.CONCRETIZED_ENV,
                    f"goal rejected: constraints depend on invented values "
                    f"({sorted(invented)[:3]}...)",
                )
                return None
        if state.fp_constraints:
            model = self._solve_fp_goal(state)
            if model is None:
                return None
            state.model = model
        self.claim_env = self._claim_env(state)
        return self._claim(state)

    def _solve_fp_goal(self, state: SymState):
        """Local search over the full (BV + FP) path condition."""
        from ..smt.fpsearch import search_fp_model

        constraints = state.constraints + state.fp_constraints
        var_widths: dict[str, int] = {}
        for c in constraints:
            stack = [c]
            seen = set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if node.is_var:
                    var_widths[node.name] = node.width
                stack.extend(node.args)
        candidates = [dict(state.model)]
        candidates.extend(self._numeric_candidates(var_widths))
        return search_fp_model(constraints, var_widths, candidates, budget=6000)

    def _numeric_candidates(self, var_widths: dict[str, int]):
        """Candidate models rendering small numeric strings into argv."""
        out = []
        arg_vars = sorted(n for n in var_widths if n in self.var_layout)
        if not arg_vars:
            return out
        for value in list(range(-120, 121)):
            text = str(value).encode()
            model = {}
            for name in arg_vars:
                _, i = self.var_layout[name]
                model[name] = text[i] if i < len(text) else 0
            out.append(model)
        return out

    def _claim_env(self, state: SymState):
        """Build the claimed environment from recorded env requirements."""
        if not self.env_requirements:
            return None
        from ..vm import Environment

        env = Environment()
        reqs = self.env_requirements
        if "time" in reqs:
            env.time_value = state.model.get(reqs["time"], 0)
        if "pid" in reqs:
            env.pid = state.model.get(reqs["pid"], 0)
        if "magic" in reqs:
            env.magic = state.model.get(reqs["magic"], 0)
        for url, var_names in reqs.get("network", {}).items():
            env.network[url] = bytes(
                state.model.get(n, 0) & 0xFF for n in var_names
            )
        for path, var_names in reqs.get("files", {}).items():
            env.files[path] = bytes(
                state.model.get(n, 0) & 0xFF for n in var_names
            )
        return env


def _render_double(bits: int) -> bytes:
    """Render a double as a plain decimal string atof can parse back."""
    from ..vm.cpu import bits_to_f64

    value = bits_to_f64(bits)
    if value != value or value in (float("inf"), float("-inf")):
        return b"0"
    for precision in range(1, 18):
        text = f"{value:.{precision}f}"
        parsed = float(text)
        if parsed == value or (value and abs(parsed - value) / abs(value) < 1e-7):
            return text.encode()
    return f"{value:.17f}".encode()
