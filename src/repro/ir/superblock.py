"""Shared, process-wide execution cache: lifted IL and superblocks.

Both execution engines used to re-derive IL per consumer: the symbolic
explorer called :func:`~repro.ir.lifter.lift` on every step and the
trace replayer kept a *per-replay* lift cache that died with each
round.  This module hoists that work to one :class:`LiftCache` per
image (keyed by the REXF image digest, the same content address the
campaign store uses), so

* every replay round and every symbolic-execution cell of one image
  shares a single pc -> IL map,
* straight-line runs of instructions are grouped into
  :class:`SuperBlock` records once and re-dispatched as a unit, and
* the whole map can be persisted into the campaign store's ``lift/``
  tree, letting a warm campaign skip lifting entirely
  (``lift.instructions`` stays at zero on a warm run).

Self-modifying code is handled by :meth:`LiftCache.invalidate_range`:
any concrete store that overlaps a cached instruction's byte range
evicts the stale entries (and every superblock touching them).  Writes
outside the image's executable sections — the overwhelmingly common
case — are rejected with two integer comparisons.
"""

from __future__ import annotations

import hashlib

from .. import session
from ..isa import Instruction
from . import il
from .lifter import lift

#: Bump when the serialized IL representation changes; persisted lift
#: payloads under any other schema are ignored (and re-lifted).
LIFT_SCHEMA = 1

#: Longest straight-line run grouped into one superblock.
MAX_BLOCK = 64

#: IL statements that transfer or end control; a superblock never
#: contains one (the generic per-instruction path handles them).
TERMINATORS = (il.CondBranch, il.Jump, il.Call, il.Ret, il.Syscall,
               il.Halt, il.DivGuard)

_MISSING = object()


def straight_line(stmts) -> bool:
    """True when *stmts* never transfers control (superblock member)."""
    return not any(isinstance(s, TERMINATORS) for s in stmts)


class SuperBlock:
    """A run of consecutive straight-line instructions.

    ``entries`` holds one ``(pc, next_pc, stmts)`` triple per
    instruction; consumers compile the stmt lists into whatever
    dispatch form they need (the explorer builds handler closures).
    """

    __slots__ = ("entry", "entries", "lo", "hi")

    def __init__(self, entry: int, entries: tuple, lo: int, hi: int):
        self.entry = entry
        self.entries = entries
        self.lo = lo    # first byte covered
        self.hi = hi    # one past the last byte covered

    def __len__(self) -> int:
        return len(self.entries)


class LiftCache:
    """Process-wide lifted-IL cache for one image.

    ``stmts`` maps pc -> ``(instr, size, stmts)``.  *instr* is the
    decoded :class:`Instruction` the statements were lifted from when
    known (``None`` for entries restored from the store); lookups that
    carry their own decoded instruction verify it against the recorded
    one, so a pc rewritten by self-modifying code re-lifts instead of
    serving stale IL.
    """

    def __init__(self, digest: str, image):
        self.digest = digest
        self.image = image
        self.stmts: dict[int, tuple[Instruction | None, int, list]] = {}
        self.blocks: dict[int, SuperBlock | None] = {}
        #: Compiled per-pc replay programs (closures; never persisted).
        self.programs: dict[int, tuple[Instruction, list]] = {}
        # Fast rejection bounds for invalidate_range: only writes into
        # an executable section can touch cached code.
        ranges = image.code_ranges()
        self.code_lo = min((lo for lo, _ in ranges), default=0)
        self.code_hi = max((hi for _, hi in ranges), default=0)
        #: pcs ever evicted by a concrete store; never persisted (their
        #: image bytes no longer describe what executed).
        self.smc_pcs: set[int] = set()
        #: Bumped whenever entries are added (lifted or loaded).
        self.version = 0
        #: ``(store root, version)`` of the last store this cache was
        #: written to or loaded from; :func:`persist` writes whenever the
        #: attached store or the contents differ from it.
        self.synced: tuple[str, int] | None = None
        #: Entries restored from the campaign store (telemetry).
        self.loaded = 0
        #: Cumulative count of actual lifter runs; consumers snapshot a
        #: delta around their run to report ``lift.instructions``.
        self.fresh_lifts = 0

    # -- lifting -----------------------------------------------------------

    def get(self, pc: int):
        return self.stmts.get(pc)

    def put(self, pc: int, instr: Instruction | None, size: int,
            stmts: list) -> None:
        self.stmts[pc] = (instr, size, stmts)
        self.version += 1

    def lift_for(self, instr: Instruction) -> tuple[list, bool]:
        """The IL for *instr*, lifting at most once per pc.

        Returns ``(stmts, fresh)`` where *fresh* is True when this call
        actually ran the lifter.  A cached entry whose recorded
        instruction differs from *instr* (self-modifying code replayed
        at the same pc) is replaced, not served.
        """
        pc = instr.addr
        entry = self.stmts.get(pc)
        if entry is not None:
            cached_instr = entry[0]
            if cached_instr is None:
                # Restored from the store: trust the content address
                # (same image ⇒ same initial bytes) but record the
                # decoded form so later lookups verify for free.
                stmts = entry[2]
                self.stmts[pc] = (instr, instr.size, stmts)
                return stmts, False
            if cached_instr is instr or cached_instr == instr:
                return entry[2], False
            self._evict(pc)
        stmts = lift(instr)
        self.stmts[pc] = (instr, instr.size, stmts)
        self.version += 1
        self.fresh_lifts += 1
        return stmts, True

    # -- superblocks -------------------------------------------------------

    def block_at(self, pc: int, fetch) -> SuperBlock | None:
        """The superblock starting at *pc* (built on first request).

        *fetch* maps a pc to a decoded :class:`Instruction` or ``None``
        when the address is not decodable code.  ``None`` is returned
        (and cached) when the instruction at *pc* is itself a
        terminator — the per-instruction path owns it.
        """
        block = self.blocks.get(pc, _MISSING)
        if block is not _MISSING:
            return block
        entries = []
        cur = pc
        while len(entries) < MAX_BLOCK:
            instr = fetch(cur)
            if instr is None:
                break
            stmts, _ = self.lift_for(instr)
            if not straight_line(stmts):
                break
            entries.append((cur, instr.next_addr, stmts))
            cur = instr.next_addr
        block = SuperBlock(pc, tuple(entries), pc, cur) if entries else None
        self.blocks[pc] = block
        return block

    @property
    def dirty(self) -> bool:
        """True when entries exist that no synced store holds."""
        synced = 0 if self.synced is None else self.synced[1]
        return self.version != synced

    # -- self-modifying code -----------------------------------------------

    def invalidate_range(self, addr: int, length: int) -> None:
        """Evict every cached entry overlapping ``[addr, addr+length)``.

        Called on every concrete memory store; the common case (a write
        outside the image's executable sections) exits after two
        comparisons.
        """
        if addr + length <= self.code_lo or addr >= self.code_hi:
            return
        end = addr + length
        for pc, (_, size, _stmts) in list(self.stmts.items()):
            if pc < end and pc + size > addr:
                self._evict(pc)
        for entry, block in list(self.blocks.items()):
            if block is None:
                # A "no block here" verdict may hinge on bytes that just
                # changed; forget it so the next request rebuilds.
                if addr <= entry < end:
                    del self.blocks[entry]
            elif block.lo < end and block.hi > addr:
                del self.blocks[entry]

    def _evict(self, pc: int) -> None:
        self.stmts.pop(pc, None)
        self.programs.pop(pc, None)
        self.smc_pcs.add(pc)
        for entry, block in list(self.blocks.items()):
            if block is not None and block.lo <= pc < block.hi:
                del self.blocks[entry]

    # -- persistence -------------------------------------------------------

    def serialize(self) -> dict:
        """JSON-able payload of every persistable entry.

        Entries whose pc was ever rewritten by self-modifying code are
        excluded: their statements describe runtime bytes, not the
        image's, and the store is keyed by the image digest.
        """
        entries = [
            [pc, size, [encode_stmt(s) for s in stmts]]
            for pc, (_, size, stmts) in sorted(self.stmts.items())
            if pc not in self.smc_pcs
        ]
        return {"schema": LIFT_SCHEMA, "image": self.digest,
                "entries": entries}

    def load(self, payload: dict) -> int:
        """Restore persisted entries (never overwriting live ones)."""
        if payload.get("schema") != LIFT_SCHEMA:
            return 0
        if payload.get("image") != self.digest:
            return 0
        restored = 0
        for pc, size, encoded in payload.get("entries", ()):
            if pc in self.stmts or pc in self.smc_pcs:
                continue
            self.stmts[pc] = (None, size, [decode_stmt(e) for e in encoded])
            restored += 1
        self.loaded += restored
        self.version += restored
        return restored


# -- IL (de)serialization ---------------------------------------------------

def _enc_ref(ref):
    if isinstance(ref, il.RegRef):
        return ["r", ref.index]
    if isinstance(ref, il.FRegRef):
        return ["f", ref.index]
    if isinstance(ref, il.TmpRef):
        return ["t", ref.index]
    return ["c", ref.value, ref.width]


def _dec_ref(data):
    kind = data[0]
    if kind == "r":
        return il.RegRef(data[1])
    if kind == "f":
        return il.FRegRef(data[1])
    if kind == "t":
        return il.TmpRef(data[1])
    return il.ConstRef(data[1], data[2])


def encode_stmt(stmt) -> list:
    """One IL statement as a JSON-able list (see :func:`decode_stmt`)."""
    e = _enc_ref
    if isinstance(stmt, il.Move):
        return ["mv", e(stmt.dst), e(stmt.src)]
    if isinstance(stmt, il.BinOp):
        return ["bin", stmt.op, e(stmt.dst), e(stmt.a), e(stmt.b),
                stmt.set_flags]
    if isinstance(stmt, il.UnOp):
        return ["un", stmt.op, e(stmt.dst), e(stmt.a), stmt.set_flags]
    if isinstance(stmt, il.Load):
        return ["ld", e(stmt.dst), e(stmt.addr), stmt.width, stmt.signed]
    if isinstance(stmt, il.Store):
        return ["st", e(stmt.addr), e(stmt.value), stmt.width]
    if isinstance(stmt, il.Lea):
        return ["lea", e(stmt.dst), e(stmt.base), stmt.disp]
    if isinstance(stmt, il.SetFlags):
        return ["fl", stmt.kind, e(stmt.a), e(stmt.b)]
    if isinstance(stmt, il.CondBranch):
        return ["cb", stmt.cc, stmt.target]
    if isinstance(stmt, il.Jump):
        return ["jmp", e(stmt.target)]
    if isinstance(stmt, il.Call):
        return ["call", e(stmt.target), stmt.return_addr]
    if isinstance(stmt, il.Ret):
        return ["ret"]
    if isinstance(stmt, il.Push):
        return ["push", e(stmt.src)]
    if isinstance(stmt, il.Pop):
        return ["pop", e(stmt.dst)]
    if isinstance(stmt, il.Syscall):
        return ["sys"]
    if isinstance(stmt, il.Halt):
        return ["halt"]
    if isinstance(stmt, il.FpOp):
        return ["fp", stmt.op, e(stmt.dst), [e(s) for s in stmt.srcs]]
    if isinstance(stmt, il.FpFlags):
        return ["fpfl", stmt.kind, e(stmt.a), e(stmt.b)]
    if isinstance(stmt, il.DivGuard):
        return ["div", e(stmt.divisor)]
    raise ValueError(f"unencodable IL stmt {stmt!r}")


def decode_stmt(data: list):
    """Inverse of :func:`encode_stmt`."""
    kind = data[0]
    d = _dec_ref
    if kind == "mv":
        return il.Move(d(data[1]), d(data[2]))
    if kind == "bin":
        return il.BinOp(data[1], d(data[2]), d(data[3]), d(data[4]), data[5])
    if kind == "un":
        return il.UnOp(data[1], d(data[2]), d(data[3]), data[4])
    if kind == "ld":
        return il.Load(d(data[1]), d(data[2]), data[3], data[4])
    if kind == "st":
        return il.Store(d(data[1]), d(data[2]), data[3])
    if kind == "lea":
        return il.Lea(d(data[1]), d(data[2]), data[3])
    if kind == "fl":
        return il.SetFlags(data[1], d(data[2]), d(data[3]))
    if kind == "cb":
        return il.CondBranch(data[1], data[2])
    if kind == "jmp":
        return il.Jump(d(data[1]))
    if kind == "call":
        return il.Call(d(data[1]), data[2])
    if kind == "ret":
        return il.Ret()
    if kind == "push":
        return il.Push(d(data[1]))
    if kind == "pop":
        return il.Pop(d(data[1]))
    if kind == "sys":
        return il.Syscall()
    if kind == "halt":
        return il.Halt()
    if kind == "fp":
        return il.FpOp(data[1], d(data[2]), tuple(d(s) for s in data[3]))
    if kind == "fpfl":
        return il.FpFlags(data[1], d(data[2]), d(data[3]))
    if kind == "div":
        return il.DivGuard(d(data[1]))
    raise ValueError(f"undecodable IL record {data!r}")


# -- process-wide registry --------------------------------------------------

_CACHES: dict[str, LiftCache] = {}


def image_digest(image) -> str:
    """The image's content address (same definition the store uses)."""
    return hashlib.sha256(image.to_bytes()).hexdigest()


def cache_for(image) -> LiftCache:
    """The process-wide :class:`LiftCache` for *image*.

    A cache created while the session has a store (:mod:`repro.session`)
    preloads from the store's ``lift/`` tree; :func:`persist` writes
    it back to whichever store the session holds later.
    """
    digest = image_digest(image)
    cache = _CACHES.get(digest)
    if cache is None:
        cache = LiftCache(digest, image)
        _CACHES[digest] = cache
        store = session.current().store
        if store is not None:
            payload = store.get_lift(digest)
            if payload is not None:
                restored = cache.load(payload)
                if restored:
                    from .. import obs

                    obs.count("cache.lift_store_hits", restored)
            cache.synced = (str(store.root), cache.version)
    return cache


def persist(cache: LiftCache) -> bool:
    """Write *cache* to the attached store unless that store already
    holds exactly these contents (written or loaded there last).

    Keyed by store, not by a single dirty bit: a cache that is clean
    with respect to one store (or loaded from it) is still written into
    a different store, so what lands in a store does not depend on what
    the process ran before.
    """
    store = session.current().store
    if store is None or cache.version == 0:
        return False
    synced = (str(store.root), cache.version)
    if cache.synced == synced:
        return False
    store.put_lift(cache.digest, cache.serialize())
    cache.synced = synced
    return True


def reset() -> None:
    """Drop every cache (test isolation)."""
    _CACHES.clear()
