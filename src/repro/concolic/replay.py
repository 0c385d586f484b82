"""Symbolic replay of a recorded trace (the paper's Figure 1 pipeline).

The replayer walks the trace event stream, maintaining for every thread
a *shadow* concrete state (re-derived by executing IL; syscall effects
come from the recorded events) and a *symbolic* state (expressions over
the argv input bytes).  It performs, in one pass, the paper's
instruction-tracing, taint-filtering, lifting and constraint-extraction
stages:

* an instruction whose inputs carry symbolic expressions is *tainted*
  (the Figure 3 metric);
* conditional branches with symbolic flag state yield path constraints;
* every capability gap in the :class:`~repro.concolic.policy.ToolPolicy`
  triggers a structured diagnostic at the precise point the real tool
  loses the plot.

Shadow fidelity is unconditional: the concrete side always matches the
traced machine (otherwise replay aborts with a divergence, classified as
an engine crash).  Only the symbolic side degrades with the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..obs import profile, provenance
from ..binfmt import Image
from ..errors import DiagnosticKind, DiagnosticLog, VMError
from ..ir import il, superblock
from ..ir.lifter import apply_binop, apply_fp_op, flag_condition
from ..isa import Op, instruction_size
from ..smt import Expr, mk_binop, mk_bool_not, mk_concat_many, mk_const, mk_eq, mk_extract, mk_sext, mk_var, mk_zext
from ..vm import Environment, Machine
from ..vm.cpu import ALU_OPS, Context, alu, bits_to_f32, bits_to_f64, sext, u64
from ..vm.machine import STACK_TOP
from ..vm.syscalls import SIGRETURN_ADDR, THREAD_EXIT_ADDR, Sys
from ..errors import SolverError
from .policy import ToolPolicy
from ..trace.record import SignalEvent, StepEvent, SyscallEvent, Trace

MASK64 = (1 << 64) - 1

#: IL binop names whose concrete ALU function has another name.
_IL_ALU = {"lshr": "shr", "ashr": "sar"}


class ReplayAbort(Exception):
    """Replay cannot continue (divergence or internal engine failure)."""


class _ReplayTruncated(Exception):
    """Replay ends early but cleanly (tool cannot lift past this point)."""


@dataclass
class PathConstraint:
    """One constraint that held on the replayed trace."""

    expr: Expr          # oriented: true on this trace
    pc: int
    kind: str           # "branch" | "div-guard"
    index: int

    def negated(self) -> Expr:
        return mk_bool_not(self.expr)


@dataclass
class ReplayResult:
    """Everything the concolic driver needs from one replay."""

    constraints: list[PathConstraint] = field(default_factory=list)
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    tainted_instructions: int = 0
    total_instructions: int = 0
    var_layout: dict[str, tuple[int, int]] = field(default_factory=dict)
    seed_argv: list[bytes] = field(default_factory=list)
    aborted: str | None = None
    #: forensics collector that observed this replay (None when off).
    provenance: "provenance.ProvenanceCollector | None" = None


class _ShadowThread:
    """Concrete + symbolic state of one traced thread."""

    __slots__ = ("ctx", "sym_regs", "sym_fregs", "sym_flags", "sig_frames",
                 "awaiting_syscall", "dead", "faulted")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sym_regs: dict[int, Expr] = {}
        self.sym_fregs: dict[int, Expr] = {}
        # (kind, a_conc, a_sym, b_conc, b_sym) or None when concrete.
        self.sym_flags: tuple | None = None
        self.sig_frames: list[tuple] = []
        self.awaiting_syscall = False
        self.dead = False
        self.faulted = False


# -- compiled replay programs -----------------------------------------------
#
# A trace revisits the same pc constantly (loops, library code), so the
# per-statement interpretation below is compiled once per pc into a list
# of handler closures with operand accessors specialized at compile
# time.  Handlers are policy-agnostic — capability switches are read
# from the replayer at call time — which is what lets the compiled
# programs live in the image's process-wide :class:`superblock.LiftCache`
# and be shared by every replay round (and every tool) of one image.
#
# Protocol: ``handler(rep, th, tmps, tid, box) -> bool`` where ``box``
# is ``[next_pc, tainted]``.  Returning True ends the instruction early
# (the handler did its own pc/liveness bookkeeping), matching the early
# ``return`` paths of the interpreted version.

def _rp_get(src):
    """Value reader returning ``(concrete, symbolic | None)``."""
    if isinstance(src, il.ConstRef):
        pair = (src.value & MASK64, None)
        return lambda rep, th, tmps: pair
    if isinstance(src, il.RegRef):
        index = src.index
        return lambda rep, th, tmps: (th.ctx.regs[index],
                                      th.sym_regs.get(index))
    if isinstance(src, il.FRegRef):
        index = src.index
        return lambda rep, th, tmps: (th.ctx.fregs[index],
                                      th.sym_fregs.get(index))
    index = src.index
    return lambda rep, th, tmps: tmps[index]


def _rp_set(dst):
    """Value writer specialized on the destination kind."""
    if isinstance(dst, il.RegRef):
        index = dst.index

        def put_reg(rep, th, tmps, conc, sym):
            th.ctx.regs[index] = conc & MASK64
            if sym is None:
                th.sym_regs.pop(index, None)
            else:
                th.sym_regs[index] = sym
        return put_reg
    if isinstance(dst, il.FRegRef):
        index = dst.index

        def put_freg(rep, th, tmps, conc, sym):
            th.ctx.fregs[index] = conc & MASK64
            if sym is None:
                th.sym_fregs.pop(index, None)
            else:
                th.sym_fregs[index] = sym
        return put_freg
    index = dst.index

    def put_tmp(rep, th, tmps, conc, sym):
        tmps[index] = (conc & MASK64, sym)
    return put_tmp


def _rp_move(stmt, pc, instr):
    get, put = _rp_get(stmt.src), _rp_set(stmt.dst)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if sym is not None:
            box[1] = True
        put(rep, th, tmps, conc, sym)
        return False
    return h


def _rp_binop(stmt, pc, instr):
    def h(rep, th, tmps, tid, box):
        taken = rep._do_binop(th, tmps, stmt, pc)
        if taken == "fault":
            th.faulted = True
            return True  # SignalEvent (or process death) follows
        if taken:
            box[1] = True
        return False
    return h


def _rp_unop(stmt, pc, instr):
    get, put = _rp_get(stmt.a), _rp_set(stmt.dst)
    set_flags = stmt.set_flags
    ones = mk_const(MASK64, 64)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if sym is not None:
            box[1] = True
        res = (~conc) & MASK64
        res_sym = None if sym is None else mk_binop("xor", sym, ones)
        if set_flags:
            th.ctx.flags.set_logic(res)
            th.sym_flags = None if res_sym is None else (
                "logic", res, res_sym, 0, None)
        put(rep, th, tmps, res, res_sym)
        return False
    return h


def _rp_lea(stmt, pc, instr):
    get, put = _rp_get(stmt.base), _rp_set(stmt.dst)
    disp = stmt.disp
    disp_expr = mk_const(stmt.disp, 64)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        sym_addr = None
        if sym is not None:
            box[1] = True
            sym_addr = mk_binop("add", sym, disp_expr)
        put(rep, th, tmps, u64(conc + disp), sym_addr)
        return False
    return h


def _rp_load(stmt, pc, instr):
    get_addr, put = _rp_get(stmt.addr), _rp_set(stmt.dst)
    width, signed = stmt.width, stmt.signed

    def h(rep, th, tmps, tid, box):
        addr_conc, addr_sym = get_addr(rep, th, tmps)
        if addr_sym is not None:
            box[1] = True
            if not rep.policy.symbolic_addressing:
                rep.diags.emit(
                    DiagnosticKind.MEM_ADDR_CONCRETIZED,
                    "load address depends on input; concretized to trace value",
                    pc,
                )
        conc, sym = rep._mem_load(th, addr_conc, width, signed, tid)
        if sym is not None:
            box[1] = True
        put(rep, th, tmps, conc, sym)
        return False
    return h


def _rp_store(stmt, pc, instr):
    get_addr, get_val = _rp_get(stmt.addr), _rp_get(stmt.value)
    width = stmt.width

    def h(rep, th, tmps, tid, box):
        addr_conc, addr_sym = get_addr(rep, th, tmps)
        if addr_sym is not None:
            box[1] = True
            if not rep.policy.symbolic_addressing:
                rep.diags.emit(
                    DiagnosticKind.MEM_ADDR_CONCRETIZED,
                    "store address depends on input; concretized to trace value",
                    pc,
                )
        conc, sym = get_val(rep, th, tmps)
        if sym is not None:
            box[1] = True
        rep._mem_store(th, addr_conc, width, conc, sym, tid, pc)
        return False
    return h


def _rp_setflags(stmt, pc, instr):
    get_a, get_b = _rp_get(stmt.a), _rp_get(stmt.b)
    kind = stmt.kind

    def h(rep, th, tmps, tid, box):
        a_conc, a_sym = get_a(rep, th, tmps)
        b_conc, b_sym = get_b(rep, th, tmps)
        if a_sym is not None or b_sym is not None:
            box[1] = True
            th.sym_flags = (kind, a_conc, a_sym, b_conc, b_sym)
        else:
            th.sym_flags = None
        if kind == "sub":
            alu("sub", a_conc, b_conc, th.ctx.flags)
        else:  # test
            th.ctx.flags.set_logic(a_conc & b_conc)
        return False
    return h


def _rp_condbranch(stmt, pc, instr):
    cc, target, fallthrough = stmt.cc, stmt.target, instr.next_addr

    def h(rep, th, tmps, tid, box):
        taken = th.ctx.flags.condition(cc)
        if th.sym_flags is not None:
            box[1] = True
            rep._branch_constraint(th, stmt, taken, pc)
        box[0] = target if taken else fallthrough
        return False
    return h


def _rp_jump(stmt, pc, instr):
    get = _rp_get(stmt.target)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if sym is not None:
            box[1] = True
            if not rep.policy.symbolic_jump:
                rep.diags.emit(
                    DiagnosticKind.SYMBOLIC_JUMP_UNMODELED,
                    "indirect jump target depends on input",
                    pc,
                )
        box[0] = conc
        return False
    return h


def _rp_call(stmt, pc, instr):
    get = _rp_get(stmt.target)
    return_addr = stmt.return_addr

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if sym is not None:
            box[1] = True
            if not rep.policy.symbolic_jump:
                rep.diags.emit(
                    DiagnosticKind.SYMBOLIC_JUMP_UNMODELED,
                    "indirect call target depends on input",
                    pc,
                )
        sp = u64(th.ctx.regs[15] - 8)
        th.ctx.regs[15] = sp
        rep.memory.write_u64(sp, return_addr)
        rep._cache.invalidate_range(sp, 8)
        rep._clear_sym_range(sp, 8)
        box[0] = conc
        return False
    return h


def _rp_ret(stmt, pc, instr):
    def h(rep, th, tmps, tid, box):
        sp = th.ctx.regs[15]
        next_pc = rep.memory.read_u64(sp)
        th.ctx.regs[15] = u64(sp + 8)
        if next_pc == SIGRETURN_ADDR:
            rep._sigreturn(th)
            return True
        if next_pc == THREAD_EXIT_ADDR:
            th.dead = True
            return True
        box[0] = next_pc
        return False
    return h


def _rp_push(stmt, pc, instr):
    get = _rp_get(stmt.src)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if sym is not None:
            box[1] = True
        sp = u64(th.ctx.regs[15] - 8)
        th.ctx.regs[15] = sp
        if not rep.policy.lifts_stack_memory and sym is not None:
            rep.diags.emit(
                DiagnosticKind.LIFT_INCOMPLETE,
                "push lifted without memory effect; value dropped",
                pc,
            )
            sym = None
        rep._mem_store(th, sp, 8, conc, sym, tid, pc)
        return False
    return h


def _rp_pop(stmt, pc, instr):
    put = _rp_set(stmt.dst)

    def h(rep, th, tmps, tid, box):
        sp = th.ctx.regs[15]
        conc, sym = rep._mem_load(th, sp, 8, False, tid)
        if sym is not None:
            box[1] = True
        if not rep.policy.lifts_stack_memory and sym is not None:
            rep.diags.emit(
                DiagnosticKind.LIFT_INCOMPLETE,
                "pop lifted without memory effect; value dropped",
                pc,
            )
            sym = None
        th.ctx.regs[15] = u64(sp + 8)
        put(rep, th, tmps, conc, sym)
        return False
    return h


def _rp_syscall(stmt, pc, instr):
    def h(rep, th, tmps, tid, box):
        th.awaiting_syscall = True
        return True  # pc advances when the SyscallEvent arrives
    return h


def _rp_halt(stmt, pc, instr):
    def h(rep, th, tmps, tid, box):
        th.dead = True
        return True
    return h


def _rp_fpop(stmt, pc, instr):
    def h(rep, th, tmps, tid, box):
        if rep._do_fpop(th, tmps, stmt, pc):
            box[1] = True
        return False
    return h


def _rp_fpflags(stmt, pc, instr):
    get_a, get_b = _rp_get(stmt.a), _rp_get(stmt.b)
    kind = stmt.kind

    def h(rep, th, tmps, tid, box):
        a_conc, a_sym = get_a(rep, th, tmps)
        b_conc, b_sym = get_b(rep, th, tmps)
        if kind == "fcmp32":
            th.ctx.flags.set_fcmp(bits_to_f32(a_conc), bits_to_f32(b_conc))
        else:
            th.ctx.flags.set_fcmp(bits_to_f64(a_conc), bits_to_f64(b_conc))
        if a_sym is None and b_sym is None:
            th.sym_flags = None
        elif not rep.policy.supports_fp:
            box[1] = True
            rep.diags.emit(
                DiagnosticKind.LIFT_UNSUPPORTED,
                f"{kind} not covered by the lifter",
                pc,
            )
            th.sym_flags = None
        else:
            box[1] = True
            th.sym_flags = (kind, a_conc, a_sym, b_conc, b_sym)
        return False
    return h


def _rp_divguard(stmt, pc, instr):
    get = _rp_get(stmt.divisor)
    zero = mk_const(0, 64)

    def h(rep, th, tmps, tid, box):
        conc, sym = get(rep, th, tmps)
        if rep.policy.div_guard and sym is not None:
            box[1] = True
            cond = mk_eq(sym, zero)
            oriented = cond if conc == 0 else mk_bool_not(cond)
            rep._push_constraint(oriented, pc, "div-guard")
        return False
    return h


_REPLAY_COMPILERS = {
    il.Move: _rp_move,
    il.BinOp: _rp_binop,
    il.UnOp: _rp_unop,
    il.Lea: _rp_lea,
    il.Load: _rp_load,
    il.Store: _rp_store,
    il.SetFlags: _rp_setflags,
    il.CondBranch: _rp_condbranch,
    il.Jump: _rp_jump,
    il.Call: _rp_call,
    il.Ret: _rp_ret,
    il.Push: _rp_push,
    il.Pop: _rp_pop,
    il.Syscall: _rp_syscall,
    il.Halt: _rp_halt,
    il.FpOp: _rp_fpop,
    il.FpFlags: _rp_fpflags,
    il.DivGuard: _rp_divguard,
}


def compile_replay_program(instr, stmts) -> list:
    """The handler-closure program for one lifted instruction."""
    pc = instr.addr
    program = []
    for stmt in stmts:
        compiler = _REPLAY_COMPILERS.get(type(stmt))
        if compiler is None:  # pragma: no cover
            raise ReplayAbort(f"unhandled IL stmt {stmt}")
        program.append(compiler(stmt, pc, instr))
    return program


class TraceReplayer:
    """Replays one trace under a tool policy."""

    def __init__(self, image: Image, policy: ToolPolicy,
                 diagnostics: DiagnosticLog | None = None):
        self.image = image
        self.policy = policy
        self.diags = diagnostics if diagnostics is not None else DiagnosticLog()
        self.lib_data_ranges = image.lib_object_ranges()
        # Process-wide lifted-IL + compiled-program cache, shared with
        # every other replay round (and the symbolic explorer) of this
        # image; persists into the campaign store when one is attached.
        self._cache = superblock.cache_for(image)
        self._pc_counts: dict[int, int] | None = None

    # -- public -----------------------------------------------------------

    def replay(self, trace: Trace) -> ReplayResult:
        result = ReplayResult(diagnostics=self.diags, seed_argv=list(trace.argv))
        machine = Machine(self.image, trace.argv, Environment())
        proc = machine.processes[machine.main_pid]
        self.memory = proc.memory
        main_thread = proc.threads[0]
        self.threads: dict[int, _ShadowThread] = {
            main_thread.tid: _ShadowThread(main_thread.ctx)
        }
        self.sym_mem: dict[int, tuple[Expr, int | None]] = {}
        self._beyond_argv: set[int] = set()
        self._beyond_flagged = False
        self.env_escaped = False
        self.result = result
        # Forensics: resolved once per replay, consulted per *tainted*
        # instruction only — the untainted hot path never touches it.
        self._prov = result.provenance = provenance.active()
        self._declare_argv(trace, result)

        if obs.active() is not None:
            # The lifting stage, separable so its cost is visible: warm
            # the shared IL cache over the trace's distinct instructions.
            # ``lift.instructions`` counts actual lifter runs — zero
            # when an earlier round (or the store) already paid.
            with obs.span("lift"):
                cache = self._cache
                before = cache.fresh_lifts
                seen: set[int] = set()
                for event in trace.events:
                    if isinstance(event, StepEvent):
                        addr = event.instr.addr
                        if addr not in seen:
                            seen.add(addr)
                            cache.lift_for(event.instr)
                obs.count("lift.instructions", cache.fresh_lifts - before)

        # Per-PC replay tally: gated once per replay, flushed once.
        self._pc_counts: dict[int, int] | None = \
            {} if profile.active() is not None else None
        with obs.span("extract"):
            try:
                for event in trace.events:
                    if isinstance(event, StepEvent):
                        self._step(event)
                    elif isinstance(event, SyscallEvent):
                        self._apply_syscall(event)
                    elif isinstance(event, SignalEvent):
                        self._apply_signal(event)
            except _ReplayTruncated:
                pass  # clean early stop; constraints so far remain usable
            except ReplayAbort as err:
                result.aborted = str(err)
                self.diags.emit(DiagnosticKind.ENGINE_CRASH, str(err))
            obs.count("taint.instructions_total", result.total_instructions)
            obs.count("taint.instructions_tainted", result.tainted_instructions)
            obs.count("taint.symbolic_branches", len(result.constraints))
            if self._pc_counts:
                profile.record_pcs("extract", self._pc_counts)
                self._pc_counts = None
        superblock.persist(self._cache)
        return result

    # -- argv declaration (the Es0-prone stage) --------------------------------

    def _declare_argv(self, trace: Trace, result: ReplayResult) -> None:
        policy = self.policy
        if policy.argv_model == "per-byte":
            # Length frozen at the seed's: a faithful statement about the
            # declaration step, recorded as a diagnostic up front.
            self.diags.emit(
                DiagnosticKind.CONCRETE_LENGTH,
                "argv declared with the seed's concrete length",
            )
        for k, (addr, length) in enumerate(trace.argv_regions):
            if k == 0:
                continue  # argv[0] is the program name
            for i in range(length):
                name = f"arg{k}_{i}"
                var = mk_var(name, 8)
                self.sym_mem[addr + i] = (var, None)
                result.var_layout[name] = (k, i)
            if self._prov is not None and length:
                self._prov.introduce(
                    f"argv[{k}] declared symbolic: {length} byte(s) at "
                    f"0x{addr:x} as arg{k}_0..arg{k}_{length - 1}")
            if policy.argv_model == "word8":
                for i in range(length, 8):
                    self._beyond_argv.add(addr + i)

    # -- value plumbing -----------------------------------------------------------

    def _get(self, th: _ShadowThread, tmps: dict, src) -> tuple[int, Expr | None]:
        if isinstance(src, il.ConstRef):
            return src.value & MASK64, None
        if isinstance(src, il.RegRef):
            return th.ctx.regs[src.index], th.sym_regs.get(src.index)
        if isinstance(src, il.FRegRef):
            return th.ctx.fregs[src.index], th.sym_fregs.get(src.index)
        return tmps[src.index]

    def _set(self, th: _ShadowThread, tmps: dict, dst, conc: int,
             sym: Expr | None) -> None:
        conc &= MASK64
        if isinstance(dst, il.RegRef):
            th.ctx.regs[dst.index] = conc
            if sym is None:
                th.sym_regs.pop(dst.index, None)
            else:
                th.sym_regs[dst.index] = sym
        elif isinstance(dst, il.FRegRef):
            th.ctx.fregs[dst.index] = conc
            if sym is None:
                th.sym_fregs.pop(dst.index, None)
            else:
                th.sym_fregs[dst.index] = sym
        else:
            tmps[dst.index] = (conc, sym)

    @staticmethod
    def _expr_of(conc: int, sym: Expr | None, width: int = 64) -> Expr:
        return sym if sym is not None else mk_const(conc, width)

    # -- memory ----------------------------------------------------------------------

    def _mem_load(self, th, addr: int, width: int, signed: bool,
                  tid: int) -> tuple[int, Expr | None]:
        conc = self.memory.read_uint(addr, width)
        conc_val = sext(conc, width * 8) if signed else conc
        beyond = self._beyond_argv
        if beyond and not self._beyond_flagged and any(
            addr + i in beyond for i in range(width)
        ):
            self._beyond_flagged = True
            self.diags.emit(
                DiagnosticKind.FIXED_WORD_ARGV,
                "read past the seed argv terminator under the fixed-word model",
            )
        byte_exprs = []
        any_sym = False
        for i in range(width):
            entry = self.sym_mem.get(addr + i)
            if entry is None:
                byte_exprs.append(mk_const((conc >> (8 * i)) & 0xFF, 8))
                continue
            expr, writer = entry
            if (writer is not None and writer != tid
                    and not self.policy.cross_thread_taint):
                self.diags.emit(
                    DiagnosticKind.CROSS_THREAD_LOST,
                    f"read of thread-{writer} data from thread {tid}",
                )
                byte_exprs.append(mk_const((conc >> (8 * i)) & 0xFF, 8))
                continue
            any_sym = True
            byte_exprs.append(expr)
        if not any_sym:
            return conc_val, None
        sym = mk_concat_many(list(reversed(byte_exprs)))
        sym = mk_sext(sym, 64) if signed else mk_zext(sym, 64)
        return conc_val, sym

    def _mem_store(self, th, addr: int, width: int, conc: int,
                   sym: Expr | None, tid: int, pc: int) -> None:
        self.memory.write_uint(addr, conc, width)
        # Self-modifying code: a store into cached code evicts the stale
        # IL (two integer comparisons when it misses the code range).
        self._cache.invalidate_range(addr, width)
        if sym is not None and not self.policy.lib_data_taint:
            if any(lo <= addr < hi for lo, hi in self.lib_data_ranges):
                self.diags.emit(
                    DiagnosticKind.TAINT_LOST,
                    "store into library-private data not instrumented",
                    pc,
                )
                sym = None
        for i in range(width):
            if sym is None:
                self.sym_mem.pop(addr + i, None)
            else:
                self.sym_mem[addr + i] = (mk_extract(sym, 8 * i + 7, 8 * i), tid)

    def _clear_sym_range(self, addr: int, length: int) -> None:
        for i in range(length):
            self.sym_mem.pop(addr + i, None)

    # -- instruction interpretation -------------------------------------------------

    def _step(self, event: StepEvent) -> None:
        th = self.threads.get(event.tid)
        if th is None or th.dead:
            raise ReplayAbort(f"step for unknown/dead thread {event.tid}")
        instr = event.instr
        if th.awaiting_syscall:
            if instr.op is Op.SYSCALL and instr.addr == th.ctx.pc:
                return  # blocked retry of the same syscall
            raise ReplayAbort("unexpected step while awaiting syscall result")
        if th.ctx.pc != instr.addr:
            raise ReplayAbort(
                f"divergence: shadow pc 0x{th.ctx.pc:x} vs trace 0x{instr.addr:x}"
            )
        self.result.total_instructions += 1
        tid = event.tid
        pc = instr.addr
        pcs = self._pc_counts
        if pcs is not None:
            pcs[pc] = pcs.get(pc, 0) + 1

        cache = self._cache
        cached = cache.programs.get(pc)
        if cached is not None and (cached[0] is instr or cached[0] == instr):
            program = cached[1]
        else:
            stmts, _ = cache.lift_for(instr)
            program = compile_replay_program(instr, stmts)
            cache.programs[pc] = (instr, program)

        tmps: dict[int, tuple[int, Expr | None]] = {}
        box = [instr.next_addr, False]   # [next_pc, tainted]
        for handler in program:
            if handler(self, th, tmps, tid, box):
                return
        th.ctx.pc = box[0]
        if box[1]:
            self.result.tainted_instructions += 1
            if self._prov is not None:
                self._prov.record_taint(pc, instr.op.name.lower(),
                                        self.result.total_instructions - 1)

    def _do_binop(self, th, tmps, stmt: il.BinOp, pc: int):
        a_conc, a_sym = self._get(th, tmps, stmt.a)
        b_conc, b_sym = self._get(th, tmps, stmt.b)
        try:
            res = ALU_OPS[_IL_ALU.get(stmt.op, stmt.op)](
                a_conc & MASK64, b_conc & MASK64,
                th.ctx.flags if stmt.set_flags else None)
        except VMError:
            return "fault"
        res_sym = None
        if a_sym is not None or b_sym is not None:
            a_expr = self._expr_of(a_conc, a_sym)
            b_expr = self._expr_of(b_conc, b_sym)
            try:
                res_sym = apply_binop(stmt.op, a_expr, b_expr)
            except SolverError as err:
                self.diags.emit(DiagnosticKind.UNSUPPORTED_THEORY, str(err), pc)
                res_sym = None
        if stmt.set_flags:
            if res_sym is None:
                th.sym_flags = None
            else:
                th.sym_flags = ("logic", res, res_sym, 0, None)
        self._set(th, tmps, stmt.dst, res, res_sym)
        return a_sym is not None or b_sym is not None

    def _do_fpop(self, th, tmps, stmt: il.FpOp, pc: int) -> bool:
        concs = []
        syms = []
        for src in stmt.srcs:
            conc, sym = self._get(th, tmps, src)
            concs.append(conc)
            syms.append(sym)
        conc_expr = apply_fp_op(stmt.op, [mk_const(c, 64) for c in concs])
        assert conc_expr.is_const
        any_sym = any(s is not None for s in syms)
        res_sym = None
        if any_sym:
            if self.policy.supports_fp:
                res_sym = apply_fp_op(
                    stmt.op,
                    [self._expr_of(c, s) for c, s in zip(concs, syms)],
                )
            else:
                self.diags.emit(
                    DiagnosticKind.LIFT_UNSUPPORTED,
                    f"{stmt.op} not covered by the lifter",
                    pc,
                )
        self._set(th, tmps, stmt.dst, conc_expr.value, res_sym)
        return any_sym

    def _branch_constraint(self, th, stmt: il.CondBranch, taken: bool,
                           pc: int) -> None:
        kind, a_conc, a_sym, b_conc, b_sym = th.sym_flags
        if kind.startswith("fcmp") and not self.policy.supports_fp:
            self.diags.emit(
                DiagnosticKind.LIFT_UNSUPPORTED,
                "fp compare feeding a branch not covered",
                pc,
            )
            return
        width = 64
        a_expr = a_sym if a_sym is not None else mk_const(a_conc, width)
        if kind == "logic":
            b_expr = None
            cond = flag_condition("logic", a_expr if a_sym is not None
                                  else mk_const(a_conc, width), None, stmt.cc)
        else:
            b_expr = b_sym if b_sym is not None else mk_const(b_conc, width)
            cond = flag_condition(kind, a_expr, b_expr, stmt.cc)
        oriented = cond if taken else mk_bool_not(cond)
        self._push_constraint(oriented, pc, "branch")

    def _push_constraint(self, expr: Expr, pc: int, kind: str) -> None:
        if expr.is_const:
            return  # degenerated to a constant; nothing to negate
        self.result.constraints.append(
            PathConstraint(expr, pc, kind, len(self.result.constraints))
        )

    # -- events --------------------------------------------------------------------

    def _apply_syscall(self, event: SyscallEvent) -> None:
        th = self.threads.get(event.tid)
        if th is None:
            raise ReplayAbort(f"syscall event for unknown thread {event.tid}")
        th.awaiting_syscall = False
        nr = event.nr
        pc = th.ctx.pc

        self._syscall_diagnostics(th, event, pc)

        # Result and memory effects are environment data: concrete.
        th.ctx.regs[0] = event.ret & MASK64
        th.sym_regs.pop(0, None)
        for addr, data in event.writes:
            self.memory.write(addr, data)
            self._cache.invalidate_range(addr, len(data))
            self._clear_sym_range(addr, len(data))
        th.ctx.pc = u64(pc + instruction_size(Op.SYSCALL))

        if nr == Sys.THREAD_CREATE and event.ret > 0:
            entry, arg, stack_top = event.args[0], event.args[1], event.args[2]
            ctx = Context(pc=entry)
            ctx.regs[1] = arg
            ctx.regs[15] = u64(stack_top - 8)
            self.memory.write_u64(ctx.regs[15], THREAD_EXIT_ADDR)
            self._cache.invalidate_range(ctx.regs[15], 8)
            self._clear_sym_range(ctx.regs[15], 8)
            new = _ShadowThread(ctx)
            if 1 in th.sym_regs:
                new.sym_regs[1] = th.sym_regs[1]
            self.threads[event.ret] = new
        elif nr in (Sys.EXIT, Sys.BOMB):
            th.dead = True

    def _syscall_diagnostics(self, th, event: SyscallEvent, pc: int) -> None:
        nr = event.nr
        policy = self.policy
        env_kind = (DiagnosticKind.TAINT_LOST if policy.env_arg_diag == "es2"
                    else DiagnosticKind.UNSUPPORTED_THEORY)

        if 0 in th.sym_regs:
            self.diags.emit(env_kind, "syscall number depends on input", pc)
        if nr in (Sys.OPEN, Sys.UNLINK):
            path_addr = event.args[0]
            path = self.memory.read_cstr(path_addr)
            if any(addr in self.sym_mem
                   for addr in range(path_addr, path_addr + len(path))):
                self.diags.emit(env_kind, "syscall path argument depends on input", pc)
        elif nr == Sys.WRITE:
            buf, length = event.args[1], event.args[2]
            if any(addr in self.sym_mem for addr in range(buf, buf + min(length, 256))):
                self.env_escaped = True
        elif nr == Sys.MSGSEND:
            if 1 in th.sym_regs:
                self.env_escaped = True
        elif nr in (Sys.READ, Sys.MSGRECV, Sys.HTTP_GET):
            if self.env_escaped:
                self.diags.emit(
                    DiagnosticKind.TAINT_LOST,
                    "input-derived data round-tripped through the environment",
                    pc,
                )
        elif nr == Sys.FORK:
            self.diags.emit(
                DiagnosticKind.CROSS_PROCESS_LOST,
                "child process not traced; cross-process dataflow invisible",
                pc,
            )

    def _apply_signal(self, event: SignalEvent) -> None:
        th = self.threads.get(event.tid)
        if th is None:
            raise ReplayAbort(f"signal for unknown thread {event.tid}")
        th.faulted = False
        if not self.policy.signal_trace:
            # The tool cannot stitch the trace discontinuity back
            # together; everything past this point is unanalyzable.
            self.diags.emit(
                DiagnosticKind.LIFT_INCOMPLETE,
                "signal delivery breaks the trace; lifting stops here",
            )
            raise _ReplayTruncated()
        sym_frame = (dict(th.sym_regs), dict(th.sym_fregs), th.sym_flags)
        th.sig_frames.append((th.ctx.clone(), sym_frame, event.resume_pc))
        # Shadow concrete state must mirror the machine either way.
        ctx = th.ctx
        ctx.regs[15] = u64(ctx.regs[15] - 8)
        self.memory.write_u64(ctx.regs[15], SIGRETURN_ADDR)
        self._cache.invalidate_range(ctx.regs[15], 8)
        self._clear_sym_range(ctx.regs[15], 8)
        ctx.regs[1] = event.signo
        th.sym_regs.pop(1, None)
        ctx.pc = event.handler

    def _sigreturn(self, th: _ShadowThread) -> None:
        if not th.sig_frames:
            raise ReplayAbort("sigreturn without a pending signal frame")
        saved_ctx, (saved_regs, saved_fregs, saved_flags), resume = th.sig_frames.pop()
        # Handler side effects on memory persist; the register file (and,
        # for signal-aware tools, the symbolic register state) restores.
        saved_ctx.pc = resume
        th.ctx = saved_ctx
        th.sym_regs = saved_regs
        th.sym_fregs = saved_fregs
        th.sym_flags = saved_flags
