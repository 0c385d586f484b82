"""Symbolic program state for the static (Angr-style) engine.

A :class:`SymState` is a forkable snapshot: program counter, register
file of expressions, a byte-granular symbolic memory overlaid on the
image, the path condition, and a cached satisfying model used to dodge
solver queries (the standard concretization-cache trick).

The memory model implements *single-level* symbolic addressing the way
2016-era angr did: a read at a symbolic address is resolved by
enumerating its feasible concrete values (up to a limit) and building
an if-then-else over the cells; results of such reads are marked, and a
later address that *contains* a marked value (a second dereference
level) or exceeds the enumeration limit falls back to concretization —
which is precisely what separates the one-level and two-level
symbolic-array bombs in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binfmt import Image
from ..errors import DiagnosticKind, DiagnosticLog, SolverError
from ..smt import (
    Expr,
    Solver,
    eval_expr,
    mk_concat_many,
    mk_const,
    mk_eq,
    mk_extract,
    mk_ite,
    mk_sext,
    mk_var,
    mk_zext,
)

MASK64 = (1 << 64) - 1


@dataclass
class EnginePipe:
    """In-engine pipe model (byte expressions survive the round trip)."""

    data: list[Expr] = field(default_factory=list)


@dataclass
class EngineSymFile:
    """In-engine file with *symbolic* contents (REXX's faithful model:
    taint survives the kernel round trip)."""

    data: list = field(default_factory=list)  # list[Expr] bytes
    pos: int = 0


@dataclass
class EngineFile:
    """In-engine file model.  Contents are concrete bytes only: symbolic
    writes are concretized (with a diagnostic) — the fidelity loss the
    covert-propagation bombs exploit."""

    data: bytearray = field(default_factory=bytearray)
    pos: int = 0


class SymState:
    """One symbolic execution state."""

    _ids = 0

    def __init__(self, image: Image):
        SymState._ids += 1
        self.sid = SymState._ids
        self.image = image
        self.pc = image.entry
        self.regs: list[Expr] = [mk_const(0, 64) for _ in range(16)]
        self.fregs: list[Expr] = [mk_const(0, 64) for _ in range(8)]
        self.flags: tuple | None = None       # (kind, a_expr, b_expr)
        self.mem: dict[int, Expr] = {}        # byte overlay
        self.constraints: list[Expr] = []
        self.model: dict[str, int] = {}       # cached satisfying model
        self.steps = 0
        self.alive = True
        self.goal = False
        #: expr id -> dereference level of symbolic-address read results.
        self.read_marks: dict[int, int] = {}
        # Environment models (shared mutable objects are copied on fork).
        self.fds: dict[int, object] = {}
        self.files: dict[str, EngineFile] = {}
        self.next_fd = 3
        self.heap_next = 0x0200_0000
        self.env_escaped = False
        self.fp_dropped = False               # an FP branch went unconstrained
        self.resolutions = 0                  # symbolic-read resolutions spent
        self.fp_constraints: list[Expr] = []  # FP conditions (fp_search mode)
        self.mailbox: list[Expr] = []         # kernel mailbox model (REXX)
        self.sig_handler: int | None = None   # registered SIGFPE handler
        #: Opaque library calls concretized along this path, in call
        #: order (sandshrew mode).  Stateful functions (srand/rand) are
        #: re-executed by replaying this log in a fresh machine.
        self.opaque_calls: tuple = ()
        self._image_bytes: dict[int, bytes] = {}

    # -- forking -----------------------------------------------------------

    def fork(self) -> "SymState":
        other = SymState.__new__(SymState)
        SymState._ids += 1
        other.sid = SymState._ids
        other.image = self.image
        other.pc = self.pc
        other.regs = list(self.regs)
        other.fregs = list(self.fregs)
        other.flags = self.flags
        other.mem = dict(self.mem)
        other.constraints = list(self.constraints)
        other.model = dict(self.model)
        other.steps = self.steps
        other.alive = True
        other.goal = False
        other.read_marks = dict(self.read_marks)
        def _copy_handle(h):
            if isinstance(h, EngineFile):
                return EngineFile(bytearray(h.data), h.pos)
            if isinstance(h, EngineSymFile):
                return EngineSymFile(list(h.data), h.pos)
            return h  # pipes stay shared, like kernel objects

        other.fds = {fd: _copy_handle(h) for fd, h in self.fds.items()}
        other.files = {name: _copy_handle(f) for name, f in self.files.items()}
        other.next_fd = self.next_fd
        other.heap_next = self.heap_next
        other.env_escaped = self.env_escaped
        other.fp_dropped = self.fp_dropped
        other.resolutions = self.resolutions
        other.fp_constraints = list(self.fp_constraints)
        other.mailbox = list(self.mailbox)
        other.sig_handler = self.sig_handler
        other.opaque_calls = self.opaque_calls
        other._image_bytes = self._image_bytes
        return other

    # -- constraints -----------------------------------------------------------

    def add_constraint(self, expr: Expr) -> None:
        if not (expr.is_const and expr.value):
            self.constraints.append(expr)

    def model_satisfies(self, expr: Expr) -> bool:
        try:
            return bool(eval_expr(expr, self.model))
        except SolverError:
            return False

    # -- registers ----------------------------------------------------------------

    def get_reg(self, index: int) -> Expr:
        return self.regs[index]

    def set_reg(self, index: int, expr: Expr) -> None:
        self.regs[index] = expr

    # -- memory ----------------------------------------------------------------------

    def _image_byte(self, addr: int) -> int:
        page = addr >> 12
        blob = self._image_bytes.get(page)
        if blob is None:
            data = bytearray(4096)
            base = page << 12
            for sec in self.image.sections:
                lo = max(sec.vaddr, base)
                hi = min(sec.vaddr + len(sec.data), base + 4096)
                if lo < hi:
                    data[lo - base : hi - base] = sec.data[lo - sec.vaddr : hi - sec.vaddr]
            blob = self._image_bytes[page] = bytes(data)
        return blob[addr & 0xFFF]

    def read_byte(self, addr: int) -> Expr:
        expr = self.mem.get(addr)
        if expr is None:
            return mk_const(self._image_byte(addr), 8)
        return expr

    def write_byte(self, addr: int, expr: Expr) -> None:
        self.mem[addr] = expr

    def read_concrete_mem(self, addr: int, width: int) -> Expr:
        parts = [self.read_byte(addr + i) for i in range(width)]
        return mk_concat_many(list(reversed(parts)))

    def write_concrete_mem(self, addr: int, expr: Expr, width: int) -> None:
        for i in range(width):
            self.write_byte(addr + i, mk_extract(expr, 8 * i + 7, 8 * i))

    def read_cstr_concrete(self, addr: int, limit: int = 256) -> bytes:
        """Read a concrete C string; symbolic bytes evaluate under the model."""
        out = bytearray()
        for i in range(limit):
            byte = self.read_byte(addr + i)
            value = byte.value if byte.is_const else eval_expr(byte, self.model)
            if value == 0:
                break
            out.append(value)
        return bytes(out)

    def cstr_has_symbolic(self, addr: int, limit: int = 256) -> bool:
        for i in range(limit):
            byte = self.read_byte(addr + i)
            if not byte.is_const:
                return True
            if byte.value == 0:
                return False
        return False

    def range_has_symbolic(self, addr: int, length: int) -> bool:
        return any(not self.read_byte(addr + i).is_const
                   for i in range(min(length, 512)))
