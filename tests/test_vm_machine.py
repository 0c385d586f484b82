"""Tests for the concrete machine: memory, OS layer, processes, signals."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm import Environment, Machine, Memory
from repro.vm.syscalls import BOMB_EXIT_CODE

from .helpers import run_asm, run_bc


class TestMemory:
    def test_zero_filled(self):
        mem = Memory()
        assert mem.read(0x5000, 16) == b"\0" * 16

    def test_write_read_roundtrip(self):
        mem = Memory()
        mem.write(0x1234, b"hello")
        assert mem.read(0x1234, 5) == b"hello"

    def test_cross_page_access(self):
        mem = Memory()
        data = bytes(range(64))
        mem.write(0xFFF0, data)
        assert mem.read(0xFFF0, 64) == data

    @given(addr=st.integers(min_value=0, max_value=2**48),
           value=st.integers(min_value=0, max_value=2**64 - 1),
           size=st.sampled_from([1, 2, 4, 8]))
    def test_uint_roundtrip(self, addr, value, size):
        mem = Memory()
        mem.write_uint(addr, value, size)
        assert mem.read_uint(addr, size) == value % (1 << (8 * size))

    def test_cstr(self):
        mem = Memory()
        mem.write_cstr(0x100, b"abc")
        assert mem.read_cstr(0x100) == b"abc"

    def test_clone_is_independent(self):
        mem = Memory()
        mem.write(0x10, b"x")
        other = mem.clone()
        other.write(0x10, b"y")
        assert mem.read(0x10, 1) == b"x"

    def test_sint(self):
        mem = Memory()
        mem.write_uint(0, 0xFF, 1)
        assert mem.read_sint(0, 1) == -1


class TestArgvSetup:
    def test_argc_argv_passed_to_main(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            print_int(argc);
            print_str(" ");
            print_str(argv[0]);
            print_str(" ");
            print_str(argv[2]);
            return 0;
        }
        ''', argv=[b"prog", b"one", b"two"])
        assert result.stdout == b"3 prog two"

    def test_argv_regions_recorded(self):
        from repro.lang import compile_single

        image = compile_single("int main(int argc, char **argv) { return 0; }")
        machine = Machine(image, [b"p", b"hello"])
        assert len(machine.argv_regions) == 2
        addr, length = machine.argv_regions[1]
        assert length == 5
        assert machine.processes[machine.main_pid].memory.read_cstr(addr) == b"hello"


class TestSyscalls:
    def test_exit_code_masked(self):
        result = run_bc("int main(int argc, char **argv) { exit(300); return 0; }")
        assert result.exit_code == 300 & 0xFF

    def test_write_to_stdout_and_stderr(self):
        result = run_asm("""
        .text
        .global _start
        _start:
            movi r0, 2
            movi r1, 2
            movi r2, msg
            movi r3, 3
            syscall
            movi r0, 0
            movi r1, 0
            syscall
            hlt
        .rodata
        msg: .asciz "err"
        """)
        assert result.exit_code == 0

    def test_file_lifecycle(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fd = open("f.dat", 0x42);
            write(fd, "data", 4);
            close(fd);
            fd = open("f.dat", 0);
            char buf[8];
            int n = read(fd, buf, 8);
            close(fd);
            print_int(n);
            unlink("f.dat");
            fd = open("f.dat", 0);
            print_int(fd);
            return 0;
        }
        ''')
        assert result.stdout == b"4-1"

    def test_open_excl_fails_on_existing(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int a = open("x", 0x42);
            close(a);
            int b = open("x", 0xc2);   // CREAT|EXCL
            print_int(b);
            return 0;
        }
        ''')
        assert result.stdout == b"-1"

    def test_lseek(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fd = open("s", 0x42);
            write(fd, "abcdef", 6);
            lseek(fd, 2);
            char b[2];
            read(fd, b, 1);
            putchar(b[0]);
            return 0;
        }
        ''')
        assert result.stdout == b"c"

    def test_env_time_pid_magic(self):
        env = Environment(time_value=777, pid=888, magic=999)
        result = run_bc(
            "int main(int argc, char **argv) {"
            " print_int(time()); print_int(getpid()); print_int(getmagic());"
            " return 0; }",
            env=env,
        )
        assert result.stdout == b"777888999"

    def test_http_get(self):
        env = Environment(network={"http://a/b": b"payload"})
        result = run_bc(r'''
        int main(int argc, char **argv) {
            char buf[32];
            int n = http_get("http://a/b", buf, 31);
            buf[n] = 0;
            print_str(buf);
            print_int(http_get("http://missing/", buf, 31));
            return 0;
        }
        ''', env=env)
        assert result.stdout == b"payload-1"

    def test_mailbox(self):
        result = run_bc(
            "int main(int argc, char **argv) {"
            " msgsend(5); msgsend(6);"
            " print_int(msgrecv()); print_int(msgrecv()); print_int(msgrecv());"
            " return 0; }"
        )
        assert result.stdout == b"560"

    def test_unknown_syscall_returns_error(self):
        result = run_bc(
            "int main(int argc, char **argv) { return __syscall(99); }"
        )
        assert result.exit_code == 0xFF  # -1 & 0xff

    def test_bomb_syscall(self):
        result = run_bc("int main(int argc, char **argv) { bomb(); return 0; }")
        assert result.bomb_triggered
        assert result.exit_code == BOMB_EXIT_CODE
        assert b"BOOM" in result.stdout


class TestProcesses:
    def test_fork_returns_zero_in_child(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) {
                print_str("child ");
                exit(7);
            }
            int status = 0;
            waitpid(pid, &status);
            print_int(status);
            return 0;
        }
        ''')
        assert result.stdout == b"child 7"

    def test_fork_memory_isolated(self):
        result = run_bc(r'''
        int g = 1;
        int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) {
                g = 100;
                exit(0);
            }
            waitpid(pid, 0);
            print_int(g);
            return 0;
        }
        ''')
        assert result.stdout == b"1"

    def test_pipe_blocking_read(self):
        # Parent reads before the child writes: the read must block.
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fds[2];
            pipe(fds);
            int pid = fork();
            if (pid == 0) {
                int i = 0;
                while (i < 1000) { i = i + 1; }  // delay
                write_u64(fds[1], 4242);
                exit(0);
            }
            int v = read_u64(fds[0]);
            waitpid(pid, 0);
            print_int(v);
            return 0;
        }
        ''')
        assert result.stdout == b"4242"

    def test_pipe_eof_when_writers_close(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fds[2];
            pipe(fds);
            close(fds[1]);
            char b[4];
            print_int(read(fds[0], b, 4));
            return 0;
        }
        ''')
        assert result.stdout == b"0"


class TestThreads:
    def test_thread_transforms_shared(self):
        result = run_bc(r'''
        int shared = 0;
        int worker(int *p) { *p = *p + 5; return 0; }
        int main(int argc, char **argv) {
            shared = 10;
            int t = pthread_create(worker, (int)&shared);
            pthread_join(t);
            print_int(shared);
            return 0;
        }
        ''')
        assert result.stdout == b"15"

    def test_two_threads(self):
        result = run_bc(r'''
        int a = 0;
        int b = 0;
        int wa(int *p) { *p = 1; return 0; }
        int wb(int *p) { *p = 2; return 0; }
        int main(int argc, char **argv) {
            int t1 = pthread_create(wa, (int)&a);
            int t2 = pthread_create(wb, (int)&b);
            pthread_join(t1);
            pthread_join(t2);
            print_int(a + b);
            return 0;
        }
        ''')
        assert result.stdout == b"3"


class TestSignals:
    def test_handler_runs_and_resumes(self):
        result = run_bc(r'''
        int hits = 0;
        int handler(int signo) { hits = hits + signo; return 0; }
        int main(int argc, char **argv) {
            signal(8, handler);
            int q = 1 / 0;
            print_int(hits);
            return 0;
        }
        ''')
        assert result.stdout == b"8"

    def test_unhandled_fault_kills_process(self):
        result = run_bc("int main(int argc, char **argv) { return 1 / 0; }")
        assert result.exit_code == 128 + 8

    def test_handler_register_state_restored(self):
        result = run_bc(r'''
        int handler(int signo) {
            int junk = signo * 100;   // clobber registers freely
            return junk;
        }
        int main(int argc, char **argv) {
            signal(8, handler);
            int keep = 1234;
            int q = 1 / 0;
            print_int(keep);
            return 0;
        }
        ''')
        assert result.stdout == b"1234"


class TestRunControl:
    def test_step_budget_reports_timeout(self):
        result = run_bc(
            "int main(int argc, char **argv) { while (1) {} return 0; }",
            max_steps=5000,
        )
        assert result.timed_out
        assert result.exit_code is None

    def test_deterministic_execution(self):
        src = r'''
        int main(int argc, char **argv) {
            srand(atoi(argv[1]));
            print_int(rand() % 1000);
            return 0;
        }
        '''
        a = run_bc(src, argv=[b"p", b"3"])
        b = run_bc(src, argv=[b"p", b"3"])
        assert a.stdout == b.stdout and a.steps == b.steps


# -- golden identity pins ------------------------------------------------------
#
# Captured on the interpreter before the per-image decode table and the
# table-dispatched step path existed.  Any change to the VM's step path
# must leave every value here unchanged: steps, exit code, trigger,
# stdout, the recorded trace (steps, syscalls, signals) and one coverage
# campaign's effort and corpus.

_PIN_BOMBS = ("pp_fork_pipe", "pp_pthread", "cp_exception", "fp_float",
              "cf_sha1", "cf_aes")


def _trace_digest(trace) -> str:
    from repro.trace.record import StepEvent, SyscallEvent

    h = hashlib.sha1()
    for e in trace.events:
        if isinstance(e, StepEvent):
            rec = ("step", e.pid, e.tid, e.instr.addr, e.instr.op.name)
        elif isinstance(e, SyscallEvent):
            rec = ("sys", e.pid, e.tid, e.nr, e.args, e.ret,
                   tuple((addr, data.hex()) for addr, data in e.writes))
        else:
            rec = ("sig", e.pid, e.tid, e.signo, e.handler, e.resume_pc)
        h.update(repr(rec).encode())
    return h.hexdigest()


def _run_pins(bomb_id: str, which: str) -> tuple:
    from repro.bombs import get_bomb
    from repro.trace.tracer import record_trace

    bomb = get_bomb(bomb_id)
    if which == "seed":
        argv, env = bomb.seed_argv, None
    else:
        argv = bomb.oracle_argv if bomb.oracle_argv is not None else bomb.seed_argv
        env = bomb.oracle_env
    result = bomb.run(argv, env)
    trace = record_trace(bomb.image, [bomb_id.encode()] + list(argv),
                         bomb.base_env().merged(env))
    return (result.steps, result.exit_code, result.bomb_triggered,
            hashlib.sha1(result.stdout).hexdigest(), _trace_digest(trace),
            len(trace.events))


def _fuzz_pins(bomb_id: str) -> tuple:
    from repro.bombs import get_bomb
    from repro.fuzz.engine import CoverageFuzzer, FuzzConfig

    bomb = get_bomb(bomb_id)
    fuzzer = CoverageFuzzer(
        bomb.image, FuzzConfig(budget=12, max_steps=30_000, persist=False),
        env=bomb.base_env(), argv0=bomb_id.encode())
    campaign = fuzzer.campaign(tuple(bomb.seed_argv))
    return campaign.executions, campaign.steps, campaign.corpus.digest()


_EMPTY = "da39a3ee5e6b4b0d3255bfef95601890afd80709"   # sha1(b"")
_BOOM = hashlib.sha1(b"BOOM!!!\n").hexdigest()

#: (bomb, argv) -> (steps, exit, triggered, stdout sha1, trace sha1, events)
GOLDEN_RUNS = {
    ("pp_fork_pipe", "seed"):
        (677, 0, False, _EMPTY, "658f1894366fd41153def077a72ab8a6a7a83d4b", 422),
    ("pp_fork_pipe", "oracle"):
        (669, 0, True, _BOOM, "658f1894366fd41153def077a72ab8a6a7a83d4b", 422),
    ("pp_pthread", "seed"):
        (242, 0, False, _EMPTY, "265ff84738084200e8f45ef14e83bfd90aa0e505", 244),
    ("pp_pthread", "oracle"):
        (240, 42, True, _BOOM, "dcc09d11b058b9c16c49db9baed505e60d1019da", 242),
    ("cp_exception", "seed"):
        (185, 0, False, _EMPTY, "24b1067297ea9ec2e3410b0504d0afa5c6815859", 187),
    ("cp_exception", "oracle"):
        (181, 42, True, _BOOM, "917af24cb0a39545a5c56223173532261661ffbf", 183),
    ("fp_float", "seed"):
        (191, 0, False, _EMPTY, "ff6a5fcb325ad25c6982e6c75856a3ef4f9098bc", 192),
    ("fp_float", "oracle"):
        (378, 42, True, _BOOM, "68c3ad17f7780b2f8e9d54ac357938b42577f497", 379),
    ("cf_sha1", "seed"):
        (18276, 0, False, _EMPTY, "834323e50754196ed69be4310d1476bbe83363cd", 18277),
    ("cf_sha1", "oracle"):
        (18284, 42, True, _BOOM, "bd6a932b619a45047ee340e448d02880df66847c", 18285),
    ("cf_aes", "seed"):
        (83335, 0, False, _EMPTY, "7a87fd3f0f634656de78e7e194a9d48f60f0b167", 83336),
    ("cf_aes", "oracle"):
        (83256, 42, True, _BOOM, "da1a86b1867caf5527db13f69ef58eb6076b44ba", 83257),
}

#: bomb -> (executions, steps, corpus digest)
GOLDEN_FUZZ = {
    "pp_fork_pipe":
        (12, 7656, "cd167924a49eac7916667a802606ce3edce3ff0cea811e02708ae8cb4d8becf9"),
    "pp_pthread":
        (10, 2303, "2176a4e74e5102b7d99664de86c6f89c4da680fccf89460998862999d7ced90f"),
    "cp_exception":
        (12, 1752, "d16c90d87bca2763cee2ac60632c39b9f58bada5dea49412af13a4a211ed743b"),
    "fp_float":
        (12, 1553, "a705de8b37206e5efa2b1ea2ca8d56f63e9f8d7b2c6bb3f8621da0c1cf42e4a2"),
    "cf_sha1":
        (12, 218568, "6cd96e5ff5c24047b12f10fe73e2913711c6b045711eb1905d79fc5e6faf3a9b"),
    "cf_aes":
        (12, 360000, "6cd96e5ff5c24047b12f10fe73e2913711c6b045711eb1905d79fc5e6faf3a9b"),
}


class TestGoldenVMPins:
    @pytest.mark.parametrize("key", sorted(GOLDEN_RUNS))
    def test_run_and_trace(self, key):
        bomb_id, which = key
        assert _run_pins(bomb_id, which) == GOLDEN_RUNS[key]

    @pytest.mark.parametrize("bomb_id", _PIN_BOMBS)
    def test_fuzz_campaign(self, bomb_id):
        assert _fuzz_pins(bomb_id) == GOLDEN_FUZZ[bomb_id]


_SMC_PROGRAM = """
.text
.global _start
_start:
    movi r5, 0
site:
    movi r1, 7
    addi r5, 1
    cmpi r5, 2
    jz done
    movi r3, site
    movi r4, 42
    st1 [r3+2], r4
    jmp site
done:
    movi r0, 0
    syscall
    hlt
"""


_READ_INTO_CODE_PROGRAM = """
.text
.global _start
_start:
    movi r5, 0
site:
    movi r1, 7
    addi r5, 1
    cmpi r5, 2
    jz done
    movi r0, 1
    movi r1, 0
    movi r2, site
    addi r2, 2
    movi r3, 1
    syscall
    jmp site
done:
    movi r0, 0
    syscall
    hlt
"""


class TestSelfModifyingCode:
    def test_syscall_write_into_code_redecodes(self):
        """A read() landing on already-executed code evicts its decode
        like a store does (the kernel writes the new immediate)."""
        from repro.asm import assemble
        from repro.binfmt import link

        image = link([assemble(_READ_INTO_CODE_PROGRAM, "smc_read.s")])
        runs = [Machine(image, [b"smc"], Environment(stdin=b"*")).run(1000)
                for _ in range(2)]
        assert [r.exit_code for r in runs] == [ord("*"), ord("*")]

    def test_store_into_code_redecodes_on_every_machine(self):
        """The first pass at ``site`` executes the image's bytes; the
        store patches the immediate, so the second pass must decode the
        patched instruction.  Later machines of the same image first hit
        the already-decoded ``site`` and must still see their own patch,
        and a patch on one machine never leaks into the next."""
        from repro.asm import assemble
        from repro.binfmt import link

        image = link([assemble(_SMC_PROGRAM, "smc.s")])
        results = [Machine(image, [b"smc"]).run(1000) for _ in range(3)]
        assert [r.exit_code for r in results] == [42, 42, 42]
        assert len({r.steps for r in results}) == 1
        assert not any(r.timed_out for r in results)
