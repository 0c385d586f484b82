"""Per-instruction step handlers for the concrete VM.

:func:`compile_instr` turns one decoded :class:`~repro.isa.Instruction`
into a handler closure with everything the step needs resolved at
decode time: operand register indices, immediates, the fall-through
and branch addresses, the ALU function and the branch predicate.  A
handler is called as ``handler(machine, proc, thread, ctx)`` and
returns the next pc, or ``None`` when the pc must not advance (a
blocked syscall, or the process halted).  Faults raise
:class:`~repro.errors.VMError` exactly as the machine expects.

Handlers hold no machine state, so one compiled handler serves every
:class:`~repro.vm.machine.Machine` of an image (see
:mod:`repro.vm.codetable`).  Every instruction that writes memory
checks the write against the machine's code range and, on overlap,
evicts the machine's stale decodes (self-modifying code).
"""

from __future__ import annotations

import operator

from ..isa import COND_BRANCHES, LOAD_INFO, STORE_INFO, Imm, Instruction, Op
from .cpu import (
    ALU_OPS,
    CONDITIONS,
    bits_to_f32,
    bits_to_f64,
    f32_round,
    f32_to_bits,
    f64_div,
    f64_to_bits,
    f64_to_i64,
    s64,
    sext,
)

MASK = (1 << 64) - 1
SIGN = 1 << 63

#: Returned by a syscall that must retry after its thread blocks.
BLOCK = object()


# -- data movement -----------------------------------------------------------

def _mov(d, s, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        regs[d] = regs[s]
        return nxt
    return h


def _movi(d, value, nxt):
    def h(m, proc, thread, ctx):
        ctx.regs[d] = value
        return nxt
    return h


def _load(d, base, disp, width, signed, nxt):
    bits = width * 8

    if signed:
        def h(m, proc, thread, ctx):
            regs = ctx.regs
            regs[d] = sext(proc.memory.read_uint((regs[base] + disp) & MASK, width), bits)
            return nxt
    else:
        def h(m, proc, thread, ctx):
            regs = ctx.regs
            regs[d] = proc.memory.read_uint((regs[base] + disp) & MASK, width)
            return nxt
    return h


def _store(base, disp, s, width, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        addr = (regs[base] + disp) & MASK
        proc.memory.write_uint(addr, regs[s], width)
        if addr < m._code_hi and addr + width > m._code_lo:
            m._evict_decoded(addr, width)
        return nxt
    return h


def _lea(d, base, disp, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        regs[d] = (regs[base] + disp) & MASK
        return nxt
    return h


# -- integer ALU ---------------------------------------------------------------
#
# add/sub/cmp and the bitwise ops run inline (the crypto bombs' inner
# loops); the rest call their :data:`~repro.vm.cpu.ALU_OPS` function.

def _add(d, s, imm, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        a = regs[d]
        b = imm if s is None else regs[s]
        full = a + b
        r = full & MASK
        regs[d] = r
        f = ctx.flags
        f.zf = r == 0
        f.sf = r >= SIGN
        f.cf = full > MASK
        f.of = ((a ^ r) & (b ^ r) & SIGN) != 0
        return nxt
    return h


def _sub(d, s, imm, nxt, write):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        a = regs[d]
        b = imm if s is None else regs[s]
        r = (a - b) & MASK
        if write:
            regs[d] = r
        f = ctx.flags
        f.zf = r == 0
        f.sf = r >= SIGN
        f.cf = a < b
        f.of = ((a ^ b) & (a ^ r) & SIGN) != 0
        return nxt
    return h


def _bitwise(fn, d, s, imm, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        r = fn(regs[d], imm if s is None else regs[s])
        regs[d] = r
        f = ctx.flags
        f.zf = r == 0
        f.sf = r >= SIGN
        f.cf = f.of = False
        return nxt
    return h


def _alu(fn, d, s, imm, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        regs[d] = fn(regs[d], imm if s is None else regs[s], ctx.flags)
        return nxt
    return h


def _not(d, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        r = ~regs[d] & MASK
        regs[d] = r
        ctx.flags.set_logic(r)
        return nxt
    return h


def _neg(d, nxt):
    sub = ALU_OPS["sub"]

    def h(m, proc, thread, ctx):
        regs = ctx.regs
        regs[d] = sub(0, regs[d], ctx.flags)
        return nxt
    return h


def _test(a, b, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        ctx.flags.set_logic(regs[a] & regs[b])
        return nxt
    return h


_BITWISE = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


# -- control flow --------------------------------------------------------------

def _jmp(target):
    def h(m, proc, thread, ctx):
        return target
    return h


def _jcc(cond, target, nxt):
    def h(m, proc, thread, ctx):
        return target if cond(ctx.flags) else nxt
    return h


def _jmpr(s):
    def h(m, proc, thread, ctx):
        return ctx.regs[s]
    return h


def _call(target, s, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        sp = regs[15] = (regs[15] - 8) & MASK
        proc.memory.write_uint(sp, nxt, 8)
        if sp < m._code_hi and sp + 8 > m._code_lo:
            m._evict_decoded(sp, 8)
        return target if s is None else regs[s]
    return h


def _ret():
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        sp = regs[15]
        target = proc.memory.read_uint(sp, 8)
        regs[15] = (sp + 8) & MASK
        return target
    return h


def _push(s, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        sp = regs[15] = (regs[15] - 8) & MASK
        proc.memory.write_uint(sp, regs[s], 8)
        if sp < m._code_hi and sp + 8 > m._code_lo:
            m._evict_decoded(sp, 8)
        return nxt
    return h


def _pop(d, nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        regs[d] = proc.memory.read_uint(regs[15], 8)
        regs[15] = (regs[15] + 8) & MASK  # after the load: pop r15 lands +8
        return nxt
    return h


def _syscall(nxt):
    def h(m, proc, thread, ctx):
        regs = ctx.regs
        result = m._syscall(proc, thread)
        if result is BLOCK:
            return None  # do not advance pc; retry on wake
        if result is not None:
            regs[0] = result & MASK
        return nxt
    return h


def _hlt():
    def h(m, proc, thread, ctx):
        m._exit_process(proc, 0)
        return None
    return h


# -- floating point ------------------------------------------------------------

def _fld(d, base, disp, nxt):
    def h(m, proc, thread, ctx):
        ctx.fregs[d] = proc.memory.read_uint((ctx.regs[base] + disp) & MASK, 8)
        return nxt
    return h


def _fst(base, disp, s, nxt):
    def h(m, proc, thread, ctx):
        addr = (ctx.regs[base] + disp) & MASK
        proc.memory.write_uint(addr, ctx.fregs[s], 8)
        if addr < m._code_hi and addr + 8 > m._code_lo:
            m._evict_decoded(addr, 8)
        return nxt
    return h


def _fcopy(dst_f, d, src_f, s, nxt):
    """fmov / fmovr / rmovf: raw 64-bit copies between register files."""
    def h(m, proc, thread, ctx):
        (ctx.fregs if dst_f else ctx.regs)[d] = (ctx.fregs if src_f else ctx.regs)[s]
        return nxt
    return h


def _farith(fn, widen, narrow, d, s, nxt):
    def h(m, proc, thread, ctx):
        fregs = ctx.fregs
        fregs[d] = narrow(fn(widen(fregs[d]), widen(fregs[s])))
        return nxt
    return h


def _fcmp(widen, a, b, nxt):
    def h(m, proc, thread, ctx):
        fregs = ctx.fregs
        ctx.flags.set_fcmp(widen(fregs[a]), widen(fregs[b]))
        return nxt
    return h


def _fconv(convert, dst_f, d, src_f, s, nxt):
    """cvt*: ``dst = convert(src)`` across register files."""
    def h(m, proc, thread, ctx):
        src = ctx.fregs if src_f else ctx.regs
        (ctx.fregs if dst_f else ctx.regs)[d] = convert(src[s])
        return nxt
    return h


def _to_f32(value: float) -> int:
    return f32_to_bits(f32_round(value))


#: f-arith opcode -> (fn, widen bits to float, narrow result to bits).
_FARITH = {
    Op.FADDS: (operator.add, bits_to_f32, _to_f32),
    Op.FSUBS: (operator.sub, bits_to_f32, _to_f32),
    Op.FMULS: (operator.mul, bits_to_f32, _to_f32),
    Op.FDIVS: (f64_div, bits_to_f32, _to_f32),
    Op.FADDD: (operator.add, bits_to_f64, f64_to_bits),
    Op.FSUBD: (operator.sub, bits_to_f64, f64_to_bits),
    Op.FMULD: (operator.mul, bits_to_f64, f64_to_bits),
    Op.FDIVD: (f64_div, bits_to_f64, f64_to_bits),
}

#: cvt* opcode -> (convert, dst is fpr, src is fpr).
_FCONV = {
    Op.CVTIFS: (lambda v: f32_to_bits(float(s64(v))), True, False),
    Op.CVTFIS: (lambda v: f64_to_i64(bits_to_f32(v)), False, True),
    Op.CVTIFD: (lambda v: f64_to_bits(float(s64(v))), True, False),
    Op.CVTFID: (lambda v: f64_to_i64(bits_to_f64(v)), False, True),
    Op.CVTSD: (lambda v: f64_to_bits(bits_to_f32(v)), True, True),
    Op.CVTDS: (lambda v: _to_f32(bits_to_f64(v)), True, True),
}

#: Register-to-register copies -> (dst is fpr, src is fpr).
_FCOPY = {Op.FMOV: (True, True), Op.FMOVR: (True, False), Op.RMOVF: (False, True)}


def compile_instr(instr: Instruction):
    """The step handler for *instr* (see the module docstring)."""
    op = instr.op
    ops = instr.operands
    nxt = instr.next_addr
    if op is Op.NOP:
        return lambda m, proc, thread, ctx: nxt
    if op is Op.MOV:
        return _mov(ops[0].index, ops[1].index, nxt)
    if op is Op.MOVI:
        return _movi(ops[0].index, ops[1].value, nxt)
    if op in LOAD_INFO:
        width, signed = LOAD_INFO[op]
        return _load(ops[0].index, ops[1].base, ops[1].disp, width, signed, nxt)
    if op in STORE_INFO:
        return _store(ops[0].base, ops[0].disp, ops[1].index, STORE_INFO[op], nxt)
    if op is Op.LEA:
        return _lea(ops[0].index, ops[1].base, ops[1].disp, nxt)
    if Op.ADD <= op <= Op.SARI or op is Op.CMP or op is Op.CMPI:
        d = ops[0].index
        if isinstance(ops[1], Imm):
            s, imm = None, ops[1].value
        else:
            s, imm = ops[1].index, 0
        name = op.name.lower().removesuffix("i")
        if name == "add":
            return _add(d, s, imm, nxt)
        if name in ("sub", "cmp"):
            return _sub(d, s, imm, nxt, write=name == "sub")
        if name in _BITWISE:
            return _bitwise(_BITWISE[name], d, s, imm, nxt)
        return _alu(ALU_OPS[name], d, s, imm, nxt)
    if op is Op.NOT:
        return _not(ops[0].index, nxt)
    if op is Op.NEG:
        return _neg(ops[0].index, nxt)
    if op is Op.TEST:
        return _test(ops[0].index, ops[1].index, nxt)
    if op is Op.JMP:
        return _jmp(ops[0].addr)
    if op in COND_BRANCHES:
        return _jcc(CONDITIONS[op.name.lower()], ops[0].addr, nxt)
    if op is Op.JMPR:
        return _jmpr(ops[0].index)
    if op is Op.CALL:
        return _call(ops[0].addr, None, nxt)
    if op is Op.CALLR:
        return _call(None, ops[0].index, nxt)
    if op is Op.RET:
        return _ret()
    if op is Op.PUSH:
        return _push(ops[0].index, nxt)
    if op is Op.POP:
        return _pop(ops[0].index, nxt)
    if op is Op.SYSCALL:
        return _syscall(nxt)
    if op is Op.HLT:
        return _hlt()
    if op is Op.FLD:
        return _fld(ops[0].index, ops[1].base, ops[1].disp, nxt)
    if op is Op.FST:
        return _fst(ops[0].base, ops[0].disp, ops[1].index, nxt)
    if op in _FCOPY:
        dst_f, src_f = _FCOPY[op]
        return _fcopy(dst_f, ops[0].index, src_f, ops[1].index, nxt)
    if op in _FARITH:
        return _farith(*_FARITH[op], ops[0].index, ops[1].index, nxt)
    if op is Op.FCMPS or op is Op.FCMPD:
        widen = bits_to_f32 if op is Op.FCMPS else bits_to_f64
        return _fcmp(widen, ops[0].index, ops[1].index, nxt)
    if op in _FCONV:
        convert, dst_f, src_f = _FCONV[op]
        return _fconv(convert, dst_f, ops[0].index, src_f, ops[1].index, nxt)
    raise ValueError(f"unimplemented opcode {op.name}")  # pragma: no cover
