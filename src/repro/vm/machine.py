"""The concrete RX64 machine: CPU loop, kernel, processes and threads.

One :class:`Machine` executes one REXF image under a given
:class:`~repro.vm.env.Environment`.  It provides the whole OS surface
the logic bombs need — files, pipes, fork, threads, signals, a clock, a
simulated network — and the hook points the tracing layer uses to play
the role Intel Pin plays in the paper (instruction records, syscall
records, signal-delivery records).

Scheduling is deterministic: threads run round-robin in ``(pid, tid)``
order with a fixed instruction quantum, so a given (image, argv, env)
triple always produces the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..obs import profile
from ..binfmt import Image
from ..errors import VMError
from ..isa import Instruction, decode
from .codetable import code_table, make_entry
from .cpu import Context, s64, u64
from .dispatch import BLOCK as _BLOCK
from .env import Environment
from .filesystem import FileHandle, FileSystem, Pipe, PipeEnd, StdStream
from .syscalls import (
    BOMB_EXIT_CODE,
    SIGRETURN_ADDR,
    THREAD_EXIT_ADDR,
    Sys,
)

QUANTUM = 60
STACK_TOP = 0x7FF0_0000
STACK_RESERVE = 0x10_0000
# Return address used by call_function(); never a valid code address, and
# checked *before* stepping so the sentinel is never fetched.
CALL_RETURN_ADDR = 0xCA11_0000


@dataclass
class Thread:
    """One schedulable thread inside a process."""

    tid: int
    ctx: Context
    state: str = "run"  # run | blocked | dead
    wake: Callable[[], bool] | None = None
    sig_frames: list[tuple[Context, int]] = field(default_factory=list)


class Process:
    """One process: private memory, fd table, mailbox, signal handlers."""

    def __init__(self, pid: int, memory, parent: int | None = None):
        self.pid = pid
        self.memory = memory
        self.parent = parent
        self.threads: list[Thread] = []
        self.fds: dict[int, object] = {}
        self.next_fd = 3
        self.mailbox: list[int] = []
        self.sig_handlers: dict[int, int] = {}
        self.brk = 0
        self.alive = True
        self.exit_code: int | None = None

    def alloc_fd(self, handle) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = handle
        return fd

    def live_threads(self) -> list[Thread]:
        return [t for t in self.threads if t.state != "dead"]


@dataclass
class RunResult:
    """Outcome of a machine run."""

    exit_code: int | None
    bomb_triggered: bool
    steps: int
    stdout: bytes
    timed_out: bool = False
    fault: str | None = None


class Machine:
    """A concrete RX64 machine executing one image."""

    def __init__(self, image: Image, argv: list[bytes], env: Environment | None = None):
        self.image = image
        self.env = env or Environment()
        self.fs = FileSystem(self.env.files)
        self.processes: dict[int, Process] = {}
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.bomb_triggered = False
        self.steps = 0
        self._next_pid = self.env.pid
        self._next_tid = 1
        # Decoded instructions: the image's shared table until this
        # machine first writes into the code range (self-modifying
        # code), then a private copy it re-decodes into.
        self._table = table = code_table(image)
        self._decode_cache: dict[int, tuple] = table.entries
        self._code_lo, self._code_hi = table.lo, table.hi
        # Per-opcode/per-syscall tallies exist only while a recorder is
        # installed; the hot step loop then pays one None-check per
        # instruction when observability is off.
        recording = obs.active() is not None
        self._opcode_counts: dict[str, int] | None = {} if recording else None
        # Per-PC tallies exist only while an attribution profiler is
        # installed — same gate-at-construction discipline, so the step
        # loop stays one None-check when profiling is off.
        self._pc_counts: dict[int, int] | None = \
            {} if profile.active() is not None else None
        self._syscall_counts: dict[int, int] = {}
        self._signals_delivered = 0
        # Hooks (used by the tracing layer).
        self.on_step: Callable[[Process, Thread, Instruction], None] | None = None
        self.on_syscall: Callable[[Process, Thread, int, list[int], int], None] | None = None
        self.on_signal: Callable[[Process, Thread, int, int], None] | None = None
        # Edge hook (used by the coverage-guided fuzzer): fired once per
        # executed block-terminating instruction with (src, dst), where
        # src is the branch address and dst the address actually reached.
        self.on_edge: Callable[[int, int], None] | None = None

        self._setup_main_process(argv)

    # -- setup ----------------------------------------------------------

    def _setup_main_process(self, argv: list[bytes]) -> None:
        from .memory import Memory

        memory = Memory()
        max_end = 0
        for sec in self.image.sections:
            memory.write(sec.vaddr, sec.data)
            max_end = max(max_end, sec.end)

        proc = Process(self._alloc_pid(), memory)
        proc.brk = (max_end + 0xFFF) & ~0xFFF
        proc.fds[0] = StdStream("stdin", in_buffer=bytearray(self.env.stdin))
        proc.fds[1] = StdStream("stdout", out_buffer=self.stdout)
        proc.fds[2] = StdStream("stderr", out_buffer=self.stderr)

        # argv block just above the stack reserve.
        sp = STACK_TOP
        str_addrs = []
        cursor = STACK_TOP + 0x100
        self.argv_regions: list[tuple[int, int]] = []
        for arg in argv:
            memory.write_cstr(cursor, arg)
            str_addrs.append(cursor)
            self.argv_regions.append((cursor, len(arg)))
            cursor += len(arg) + 1
        argv_base = (cursor + 7) & ~7
        for i, addr in enumerate(str_addrs):
            memory.write_u64(argv_base + 8 * i, addr)
        memory.write_u64(argv_base + 8 * len(str_addrs), 0)

        ctx = Context(pc=self.image.entry)
        ctx.regs[15] = sp
        ctx.regs[1] = len(argv)
        ctx.regs[2] = argv_base
        thread = Thread(self._alloc_tid(), ctx)
        proc.threads.append(thread)
        self.processes[proc.pid] = proc
        self.main_pid = proc.pid

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- run loop ----------------------------------------------------------

    def run(self, max_steps: int = 2_000_000) -> RunResult:
        """Run to completion or until *max_steps* instructions executed."""
        fault = None
        steps0 = self.steps
        signals0 = self._signals_delivered
        while self.steps < max_steps:
            ran_any = False
            for proc in sorted(self.processes.values(), key=lambda p: p.pid):
                if not proc.alive:
                    continue
                for thread in list(proc.threads):
                    if thread.state == "blocked" and thread.wake and thread.wake():
                        thread.state = "run"
                        thread.wake = None
                    if thread.state != "run" or not proc.alive:
                        continue
                    ran_any = True
                    self._run_quantum(proc, thread, min(QUANTUM, max_steps - self.steps))
                    if self.steps >= max_steps:
                        break
                if self.steps >= max_steps:
                    break
            if not ran_any:
                break
        main = self.processes[self.main_pid]
        timed_out = self.steps >= max_steps and any(
            p.alive for p in self.processes.values()
        )
        self._flush_metrics(steps0, signals0)
        return RunResult(
            exit_code=main.exit_code,
            bomb_triggered=self.bomb_triggered,
            steps=self.steps,
            stdout=bytes(self.stdout),
            timed_out=timed_out,
            fault=fault,
        )

    def _flush_metrics(self, steps0: int, signals0: int) -> None:
        """Report this run's tallies to the installed recorder, if any."""
        if self._pc_counts:
            # One flush per run(): the profiler derives the stage (trace,
            # replay, ...) from the innermost open span.
            profile.record_vm(self._pc_counts)
            self._pc_counts = {}
        rec = obs.active()
        if rec is None:
            return
        rec.count("vm.instructions", self.steps - steps0)
        rec.count("vm.signals", self._signals_delivered - signals0)
        if self.bomb_triggered:
            rec.count("vm.bomb_triggered")
        if self._syscall_counts:
            from .syscalls import Sys

            total = 0
            for nr, n in self._syscall_counts.items():
                total += n
                try:
                    name = Sys(nr).name.lower()
                except ValueError:
                    name = str(nr)
                rec.count(f"vm.syscall.{name}", n)
            rec.count("vm.syscalls", total)
            self._syscall_counts.clear()
        if self._opcode_counts:
            for name, n in self._opcode_counts.items():
                rec.count(f"vm.op.{name.lower()}", n)
            self._opcode_counts.clear()

    def _run_quantum(self, proc: Process, thread: Thread, budget: int) -> None:
        for _ in range(budget):
            if thread.state != "run" or not proc.alive:
                return
            try:
                self._step(proc, thread)
            except VMError as err:
                signo = getattr(err, "signo", 11)
                self._deliver_signal(proc, thread, signo)
            self.steps += 1

    # -- instruction execution ------------------------------------------------

    def _private_decodes(self) -> dict[int, tuple]:
        """This machine's own decode map, copied from the image's shared
        table on first use (the shared one only holds image bytes)."""
        if self._decode_cache is self._table.entries:
            self._decode_cache = dict(self._decode_cache)
        return self._decode_cache

    def _evict_decoded(self, addr: int, width: int) -> None:
        """Self-modifying code: drop decodes overlapping the written
        range (an instruction starts at most 15 bytes before it)."""
        cache = self._private_decodes()
        for pc in range(addr - 15, addr + width):
            cache.pop(pc, None)

    def _write(self, proc: Process, addr: int, data: bytes) -> None:
        """A kernel-side write into *proc*'s memory (syscall results,
        signal frames, thread stacks); evicts decodes it overwrites."""
        proc.memory.write(addr, data)
        if addr < self._code_hi and addr + len(data) > self._code_lo:
            self._evict_decoded(addr, len(data))

    def _decode(self, proc: Process, pc: int) -> tuple:
        """Decode-table miss at code address *pc*."""
        if self._decode_cache is self._table.entries:
            entry = self._table.fetch(pc)
            if entry is not None:
                return entry
            # None: runs past the code range; decode this machine's bytes.
        entry = self._private_decodes()[pc] = make_entry(
            decode(proc.memory.read(pc, 16), pc))
        return entry

    def _fetch(self, proc: Process, pc: int) -> Instruction:
        entry = self._decode_cache.get(pc)
        if entry is not None:
            return entry[0]
        if self._table.is_code(pc):
            return self._decode(proc, pc)[0]
        return decode(proc.memory.read(pc, 16), pc)

    def _step(self, proc: Process, thread: Thread) -> None:
        ctx = thread.ctx
        pc = ctx.pc
        entry = self._decode_cache.get(pc)
        if entry is None:
            if pc == SIGRETURN_ADDR:
                self._sigreturn(thread)
                return
            if pc == THREAD_EXIT_ADDR:
                self._thread_exit(proc, thread)
                return
            if not self._table.is_code(pc):
                raise VMError(f"pc 0x{pc:x} outside code")
            entry = self._decode(proc, pc)
        instr, handler, edge, name = entry
        counts = self._opcode_counts
        if counts is not None:
            counts[name] = counts.get(name, 0) + 1
        pcs = self._pc_counts
        if pcs is not None:
            pcs[pc] = pcs.get(pc, 0) + 1
        if self.on_step:
            self.on_step(proc, thread, instr)
        next_pc = handler(self, proc, thread, ctx)
        if next_pc is not None:
            ctx.pc = next_pc
            if edge and self.on_edge is not None:
                self.on_edge(pc, next_pc)

    # -- signals ----------------------------------------------------------------

    def _deliver_signal(self, proc: Process, thread: Thread, signo: int) -> None:
        self._signals_delivered += 1
        handler = proc.sig_handlers.get(signo)
        if handler is None:
            self._exit_process(proc, 128 + signo)
            return
        instr = self._fetch(proc, thread.ctx.pc)
        resume = instr.next_addr  # faulting instruction is skipped
        thread.sig_frames.append((thread.ctx.clone(), resume))
        if self.on_signal:
            self.on_signal(proc, thread, signo, handler)
        ctx = thread.ctx
        ctx.regs[15] = u64(ctx.regs[15] - 8)
        self._write(proc, ctx.regs[15], SIGRETURN_ADDR.to_bytes(8, "little"))
        ctx.regs[1] = signo
        ctx.pc = handler

    def _sigreturn(self, thread: Thread) -> None:
        saved, resume = thread.sig_frames.pop()
        thread.ctx = saved
        thread.ctx.pc = resume

    # -- threads & processes -------------------------------------------------------

    def _thread_exit(self, proc: Process, thread: Thread) -> None:
        thread.state = "dead"
        if not proc.live_threads():
            self._exit_process(proc, 0)

    def _exit_process(self, proc: Process, code: int) -> None:
        proc.alive = False
        proc.exit_code = code
        for thread in proc.threads:
            thread.state = "dead"
        for handle in proc.fds.values():
            if isinstance(handle, PipeEnd):
                handle.close()

    # -- syscalls -------------------------------------------------------------------

    def _syscall(self, proc: Process, thread: Thread):
        regs = thread.ctx.regs
        nr = regs[0]
        args = [regs[i] for i in range(1, 6)]
        if self._opcode_counts is not None:
            self._syscall_counts[nr] = self._syscall_counts.get(nr, 0) + 1
        result = self._dispatch_syscall(proc, thread, nr, args)
        if result is not _BLOCK and self.on_syscall:
            self.on_syscall(proc, thread, nr, args, result if result is not None else 0)
        return result

    def _dispatch_syscall(self, proc: Process, thread: Thread, nr: int, args: list[int]):
        mem = proc.memory
        if nr == Sys.EXIT:
            self._exit_process(proc, s64(args[0]) & 0xFF)
            return None
        if nr == Sys.BOMB:
            self.bomb_triggered = True
            self.stdout.extend(b"BOOM!!!\n")
            self._exit_process(proc, BOMB_EXIT_CODE)
            return None
        if nr == Sys.WRITE:
            handle = proc.fds.get(args[0])
            if handle is None:
                return -1
            data = mem.read(args[1], args[2])
            if isinstance(handle, PipeEnd):
                return handle.pipe.write(data) if handle.write_end else -1
            return handle.write(data)
        if nr == Sys.READ:
            handle = proc.fds.get(args[0])
            if handle is None:
                return -1
            if isinstance(handle, PipeEnd):
                if handle.write_end:
                    return -1
                chunk = handle.pipe.read(args[2])
                if chunk is None:
                    pipe = handle.pipe
                    thread.state = "blocked"
                    thread.wake = lambda: bool(pipe.buffer) or pipe.writers == 0
                    return _BLOCK
            else:
                chunk = handle.read(args[2])
            self._write(proc, args[1], chunk)
            return len(chunk)
        if nr == Sys.OPEN:
            path = mem.read_cstr(args[0]).decode("latin1")
            handle = self.fs.open(path, args[1])
            if handle is None:
                return -1
            return proc.alloc_fd(handle)
        if nr == Sys.CLOSE:
            handle = proc.fds.pop(args[0], None)
            if handle is None:
                return -1
            if isinstance(handle, PipeEnd):
                handle.close()
            return 0
        if nr == Sys.UNLINK:
            return self.fs.unlink(mem.read_cstr(args[0]).decode("latin1"))
        if nr == Sys.LSEEK:
            handle = proc.fds.get(args[0])
            if isinstance(handle, FileHandle):
                return handle.seek(s64(args[1]))
            return -1
        if nr == Sys.TIME:
            return self.env.time_value
        if nr == Sys.GETPID:
            return proc.pid
        if nr == Sys.GETMAGIC:
            return self.env.magic
        if nr == Sys.FORK:
            return self._do_fork(proc, thread)
        if nr == Sys.PIPE:
            pipe = Pipe()
            rfd = proc.alloc_fd(PipeEnd(pipe, write_end=False))
            wfd = proc.alloc_fd(PipeEnd(pipe, write_end=True))
            self._write(proc, args[0], rfd.to_bytes(8, "little"))
            self._write(proc, args[0] + 8, wfd.to_bytes(8, "little"))
            return 0
        if nr == Sys.WAITPID:
            target = self.processes.get(args[0])
            if target is None:
                return -1
            if target.alive:
                thread.state = "blocked"
                thread.wake = lambda: not target.alive
                return _BLOCK
            if args[1]:
                self._write(proc, args[1], (target.exit_code or 0).to_bytes(8, "little"))
            return target.pid
        if nr == Sys.THREAD_CREATE:
            entry, arg, stack_top = args[0], args[1], args[2]
            ctx = Context(pc=entry)
            ctx.regs[1] = arg
            ctx.regs[15] = u64(stack_top - 8)
            self._write(proc, ctx.regs[15], THREAD_EXIT_ADDR.to_bytes(8, "little"))
            new_thread = Thread(self._alloc_tid(), ctx)
            proc.threads.append(new_thread)
            return new_thread.tid
        if nr == Sys.THREAD_JOIN:
            tid = args[0]
            target = next((t for t in proc.threads if t.tid == tid), None)
            if target is None:
                return -1
            if target.state != "dead":
                thread.state = "blocked"
                thread.wake = lambda: target.state == "dead"
                return _BLOCK
            return 0
        if nr == Sys.YIELD:
            return 0
        if nr == Sys.HTTP_GET:
            url = mem.read_cstr(args[0]).decode("latin1")
            body = self.env.network.get(url)
            if body is None:
                return -1
            data = body[: args[2]]
            self._write(proc, args[1], data)
            return len(data)
        if nr == Sys.BRK:
            if args[0]:
                proc.brk = args[0]
            return proc.brk
        if nr == Sys.SIGNAL:
            proc.sig_handlers[args[0]] = args[1]
            return 0
        if nr == Sys.MSGSEND:
            proc.mailbox.append(args[0])
            return 0
        if nr == Sys.MSGRECV:
            if proc.mailbox:
                return proc.mailbox.pop(0)
            return 0
        return -1  # unknown syscall

    def _do_fork(self, proc: Process, thread: Thread) -> int:
        child = Process(self._alloc_pid(), proc.memory.clone(), parent=proc.pid)
        child.brk = proc.brk
        child.mailbox = list(proc.mailbox)
        child.sig_handlers = dict(proc.sig_handlers)
        child.next_fd = proc.next_fd
        for fd, handle in proc.fds.items():
            if isinstance(handle, PipeEnd):
                if handle.write_end:
                    handle.pipe.writers += 1
                else:
                    handle.pipe.readers += 1
                child.fds[fd] = PipeEnd(handle.pipe, handle.write_end)
            elif isinstance(handle, FileHandle):
                child.fds[fd] = FileHandle(handle.fs, handle.path, handle.flags, handle.pos)
            else:
                child.fds[fd] = handle
        # Child: one thread, a copy of the caller, already past the
        # syscall with return value 0.
        ctx = thread.ctx.clone()
        ctx.regs[0] = 0
        ctx.pc = self._fetch(proc, thread.ctx.pc).next_addr
        child.threads.append(Thread(self._alloc_tid(), ctx))
        self.processes[child.pid] = child
        return child.pid

    # -- direct calls -----------------------------------------------------------

    def scratch_alloc(self, size: int) -> int:
        """Carve *size* bytes off the main process's brk for call buffers."""
        proc = self.processes[self.main_pid]
        addr = proc.brk
        proc.brk = (proc.brk + size + 0xF) & ~0xF
        return addr

    def call_function(self, addr: int, args: list[int], max_steps: int = 200_000) -> int:
        """Execute the function at *addr* to completion and return r0.

        Arguments go in r1..rN per the VM calling convention (doubles are
        passed as raw 64-bit bit patterns).  The call runs on the main
        process's first thread with the sentinel return address checked
        *before* each step, so repeated calls on one machine work and
        process globals (e.g. a PRNG state cell) persist between calls.
        """
        proc = self.processes[self.main_pid]
        if not proc.alive:
            raise VMError("call_function: main process has exited")
        thread = proc.threads[0]
        saved = thread.ctx
        ctx = Context(pc=addr)
        for i, value in enumerate(args[:14], start=1):
            ctx.regs[i] = u64(value)
        ctx.regs[15] = u64(STACK_TOP - 8)
        proc.memory.write_u64(ctx.regs[15], CALL_RETURN_ADDR)
        thread.ctx = ctx
        thread.state = "run"
        try:
            for _ in range(max_steps):
                if ctx.pc == CALL_RETURN_ADDR:
                    return ctx.regs[0]
                if thread.state != "run" or not proc.alive:
                    raise VMError("call_function: callee exited the process")
                self._step(proc, thread)
                self.steps += 1
            raise VMError(f"call_function: no return within {max_steps} steps")
        finally:
            thread.ctx = saved
            thread.state = "run"


def run_image(
    image: Image,
    argv: list[bytes],
    env: Environment | None = None,
    max_steps: int = 2_000_000,
) -> RunResult:
    """Convenience: execute *image* with *argv* and return the result."""
    return Machine(image, argv, env).run(max_steps)
