"""One decoded-instruction table per image, shared by both engines.

Every concrete run of an image (a trace, a fuzz execution, a
``Bomb.triggers`` check, a concrete fallback) and every symbolic
exploration of it fetches instructions from the same executable bytes.
:class:`CodeTable` decodes each pc of those bytes at most once per
process and hands the result to all of them.

* The table is filled lazily: nothing is decoded until some run fetches
  the pc.
* Only pcs inside the image's code sections are ever entered, so a hit
  proves the pc is code and the caller skips the range check.
* An entry is ``(instr, handler, edge, opname)``: the decoded
  instruction, its :func:`~repro.vm.dispatch.compile_instr` step
  handler (fall-through and branch addresses baked in), whether the op
  ends a basic block (coverage edge) and the opcode name (opcode
  tallies).
* Entries are decoded from the image's own bytes.  A
  :class:`~repro.vm.machine.Machine` uses the shared entries until it
  first writes into the code range; from then on it keeps a private
  copy and re-decodes from its own memory (self-modifying code).  An
  instruction whose bytes run past the end of the code range is never
  shared: what follows the code range may be writable memory.
"""

from __future__ import annotations

import weakref

from ..isa import COND_BRANCHES, Instruction, Op, decode
from ..isa.opcodes import INSTRUCTION_SIZE
from .dispatch import compile_instr

#: Ops that end a basic block: every (src, dst) pair they produce is an
#: edge for coverage purposes, including the fallthrough side of a
#: conditional branch.
EDGE_OPS = frozenset({Op.JMP, Op.JMPR, Op.CALL, Op.CALLR, Op.RET}) | COND_BRANCHES


def make_entry(instr: Instruction) -> tuple:
    """The table entry for *instr* (see the module docstring)."""
    return (instr, compile_instr(instr), instr.op in EDGE_OPS, instr.op.name)


class CodeTable:
    """Lazily filled pc -> decoded-entry map over one image's code."""

    __slots__ = ("entries", "lo", "hi", "_ranges", "_sections")

    def __init__(self, image):
        self._ranges = tuple(image.code_ranges())
        #: Bounding box of the code sections: writes outside it never
        #: touch decoded code.
        self.lo = min((lo for lo, _ in self._ranges), default=0)
        self.hi = max((hi for _, hi in self._ranges), default=0)
        self._sections = tuple((sec.vaddr, sec.data) for sec in image.sections)
        self.entries: dict[int, tuple] = {}

    def is_code(self, pc: int) -> bool:
        for lo, hi in self._ranges:
            if lo <= pc < hi:
                return True
        return False

    def read(self, addr: int, size: int) -> bytes:
        """*size* bytes of the image's initial memory at *addr*."""
        out = bytearray(size)
        for vaddr, data in self._sections:
            lo = max(vaddr, addr)
            hi = min(vaddr + len(data), addr + size)
            if lo < hi:
                out[lo - addr : hi - addr] = data[lo - vaddr : hi - vaddr]
        return bytes(out)

    def fetch(self, pc: int) -> tuple | None:
        """The entry for code address *pc*, decoding the image bytes on
        a miss; ``None`` when the instruction's bytes run past the code
        range (never shared).  Raises :class:`~repro.errors.VMError` on
        undecodable bytes, entering nothing."""
        entry = self.entries.get(pc)
        if entry is None:
            blob = self.read(pc, 16)
            size = INSTRUCTION_SIZE.get(blob[0])
            if size is not None and pc + size > self.hi:
                return None
            entry = self.entries[pc] = make_entry(decode(blob, pc))
        return entry


#: id(image) -> its table; an entry is dropped when its image is
#: collected.  Keyed by identity, not stored on the image, so images
#: stay picklable.
_TABLES: dict[int, CodeTable] = {}


def code_table(image) -> CodeTable:
    """The process-wide :class:`CodeTable` of *image* (one per object)."""
    table = _TABLES.get(id(image))
    if table is None:
        table = _TABLES[id(image)] = CodeTable(image)
        weakref.finalize(image, _TABLES.pop, id(image), None)
    return table
