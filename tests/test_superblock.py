"""Tests for the shared execution cache: lifted IL, superblocks, SMC
invalidation, store persistence, and the cache's invisibility in
engine outcomes (cold vs warm)."""

import pytest

from repro import obs, session
from repro.bombs import get_bomb
from repro.ir import il, superblock
from repro.ir.superblock import LiftCache, decode_stmt, encode_stmt
from repro.isa import Instruction, Op, OPSPEC, FReg, Imm, Mem, Reg, Target
from repro.lang import compile_single
from repro.symex import AngrEngine, SymexPolicy


def _instr(op: Op, addr=0x1000) -> Instruction:
    operands = []
    for kind in OPSPEC[op]:
        operands.append({
            "R": Reg(2), "F": FReg(1), "I": Imm(7),
            "M": Mem(3, 16), "J": Target(addr + 64),
        }[kind])
    return Instruction(op, tuple(operands), addr)


def _fast_policy(**kw):
    defaults = dict(name="t", with_libs=True, max_states=256,
                    max_total_steps=80_000, max_queries=400, time_limit=60.0)
    defaults.update(kw)
    return SymexPolicy(**defaults)


@pytest.fixture(autouse=True)
def _isolated_cache():
    """The cache registry is process-wide state; isolate every test."""
    superblock.reset()
    yield
    superblock.reset()


def _image():
    return compile_single("int main(int argc, char **argv) { return 0; }")


# -- IL (de)serialization ---------------------------------------------------

class TestILCodec:
    @pytest.mark.parametrize("op", list(Op))
    def test_round_trip_every_opcode(self, op):
        from repro.ir.lifter import lift

        for stmt in lift(_instr(op)):
            decoded = decode_stmt(encode_stmt(stmt))
            assert decoded == stmt

    def test_round_trip_survives_json(self):
        import json

        from repro.ir.lifter import lift

        stmts = lift(_instr(Op.ST4))
        wire = json.loads(json.dumps([encode_stmt(s) for s in stmts]))
        assert [decode_stmt(e) for e in wire] == stmts

    def test_unknown_record_raises(self):
        with pytest.raises(ValueError):
            decode_stmt(["nope"])


# -- lift cache semantics ---------------------------------------------------

class TestLiftCache:
    def test_lift_for_lifts_once(self):
        cache = LiftCache("d", _image())
        instr = _instr(Op.ADD)
        stmts, fresh = cache.lift_for(instr)
        assert fresh and cache.fresh_lifts == 1
        again, fresh2 = cache.lift_for(instr)
        assert again is stmts and not fresh2 and cache.fresh_lifts == 1

    def test_lift_for_detects_rewritten_pc(self):
        cache = LiftCache("d", _image())
        cache.lift_for(_instr(Op.ADD))
        # Same pc, different instruction: self-modifying code replayed.
        stmts, fresh = cache.lift_for(_instr(Op.SUB))
        assert fresh and isinstance(stmts[0], il.BinOp)
        assert stmts[0].op == "sub"
        assert 0x1000 in cache.smc_pcs

    def test_block_at_groups_straight_line_runs(self):
        cache = LiftCache("d", _image())
        program = {0x1000: _instr(Op.ADD, 0x1000)}
        program[0x1000 + program[0x1000].size] = \
            _instr(Op.MOV, 0x1000 + program[0x1000].size)
        block = cache.block_at(0x1000, program.get)
        assert block is not None and len(block) == 2
        assert block.lo == 0x1000 and block.hi > block.lo
        # Cached verdicts (including None) are served without fetching.
        assert cache.block_at(0x1000, lambda pc: None) is block

    def test_block_at_stops_at_terminator(self):
        cache = LiftCache("d", _image())
        assert cache.block_at(0x1000, {0x1000: _instr(Op.JMP)}.get) is None

    def test_invalidate_range_evicts_overlap_only(self):
        cache = LiftCache("d", _image())
        lo, hi = cache.code_lo, cache.code_hi
        instr = _instr(Op.ADD, lo)
        cache.lift_for(instr)
        block = cache.block_at(lo, {lo: instr}.get)
        assert block is not None
        # A write far outside executable sections is a two-compare no-op.
        cache.invalidate_range(hi + 0x10000, 8)
        assert lo in cache.stmts and cache.blocks[lo] is block
        # A write into the cached instruction evicts stmts and blocks.
        cache.invalidate_range(lo + 1, 1)
        assert lo not in cache.stmts and lo not in cache.blocks
        assert lo in cache.smc_pcs

    def test_serialize_load_round_trip(self):
        cache = LiftCache("d", _image())
        instr = _instr(Op.ADD)
        stmts, _ = cache.lift_for(instr)
        restored = LiftCache("d", _image())
        assert restored.load(cache.serialize()) == 1
        entry = restored.stmts[instr.addr]
        assert entry[0] is None and entry[2] == stmts
        # lift_for verifies and adopts the restored entry without lifting.
        again, fresh = restored.lift_for(instr)
        assert again == stmts and not fresh and restored.fresh_lifts == 0

    def test_serialize_excludes_smc_pcs(self):
        cache = LiftCache("d", _image())
        cache.lift_for(_instr(Op.ADD))
        cache.lift_for(_instr(Op.SUB))  # rewrites pc 0x1000
        assert cache.serialize()["entries"] == []

    def test_load_rejects_wrong_schema_and_image(self):
        cache = LiftCache("d", _image())
        assert cache.load({"schema": -1, "image": "d", "entries": []}) == 0
        assert cache.load({"schema": superblock.LIFT_SCHEMA,
                           "image": "other", "entries": []}) == 0


# -- store persistence ------------------------------------------------------

class TestStorePersistence:
    def test_warm_process_skips_lifting(self, tmp_path):
        from repro.service.store import ResultStore

        store = ResultStore(tmp_path)
        image = _image()
        with session.use(store=store):
            cache = superblock.cache_for(image)
            stmts, _ = cache.lift_for(_instr(Op.ADD, image.entry))
            assert superblock.persist(cache)
        assert not cache.dirty

        # A "new process": fresh registry, same store.
        superblock.reset()
        with session.use(store=store):
            warm = superblock.cache_for(image)
        assert warm.loaded == 1
        restored, fresh = warm.lift_for(_instr(Op.ADD, image.entry))
        assert restored == stmts and not fresh and warm.fresh_lifts == 0

    def test_clean_cache_is_written_into_a_new_store(self, tmp_path):
        """A cache already persisted to store A is clean for A, not for
        every store: a cell run against a fresh store B in the same
        process must still leave the lift payload in B."""
        from repro.eval.harness import run_cell
        from repro.service.store import ResultStore

        bomb = get_bomb("cp_stack")
        digest = superblock.image_digest(bomb.image)
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        with session.use(store=store_a):
            run_cell(bomb, "tritonx")
        assert store_a.get_lift(digest) is not None
        assert not superblock.cache_for(bomb.image).dirty
        with session.use(store=store_b):
            run_cell(bomb, "tritonx")
        assert store_b.get_lift(digest) == store_a.get_lift(digest)

    def test_persist_without_store_is_noop(self):
        cache = superblock.cache_for(_image())
        cache.lift_for(_instr(Op.ADD))
        assert not superblock.persist(cache)
        assert cache.dirty


# -- cache invisibility in engine outcomes ----------------------------------

class TestColdWarmIdentity:
    def test_cold_and_warm_exploration_agree(self):
        bomb = get_bomb("sa_l1_array")

        def run():
            return AngrEngine(bomb.image, _fast_policy()).explore(
                bomb.seed_argv, argv0=b"x")

        cold, warm = run(), run()
        assert cold.claimed_inputs == warm.claimed_inputs == [[b"6"]]
        assert cold.goal_claimed == warm.goal_claimed
        assert cold.steps == warm.steps
        assert cold.states_explored == warm.states_explored

    def test_superblock_counters_flow_to_obs(self):
        bomb = get_bomb("sa_l1_array")
        recorder = obs.Recorder()
        with obs.recording(recorder):
            AngrEngine(bomb.image, _fast_policy()).explore(
                bomb.seed_argv, argv0=b"x")
        counters = recorder.snapshot()["counters"]
        assert counters.get("cache.superblock_hits", 0) > 0
        assert counters.get("lift.instructions", 0) > 0
        # Warm engine in the same process: nothing left to lift.
        recorder2 = obs.Recorder()
        with obs.recording(recorder2):
            AngrEngine(bomb.image, _fast_policy()).explore(
                bomb.seed_argv, argv0=b"x")
        warm = recorder2.snapshot()["counters"]
        assert warm.get("lift.instructions", 0) == 0
        assert warm.get("cache.superblock_misses", 0) == 0


# -- enumeration front-end --------------------------------------------------

class TestPathSolver:
    def test_enumeration_matches_and_memoizes(self):
        from repro.smt import mk_cmp, mk_const, mk_var, mk_zext
        from repro.symex.cache import PathSolver

        x = mk_var("tsb_x", 8)
        addr = mk_zext(x, 64)
        constraints = [mk_cmp("ule", addr, mk_const(2, 64))]
        ps = PathSolver(_fast_policy())
        values = ps.enumerate_values(constraints, addr, limit=8)
        assert sorted(values) == [0, 1, 2]
        assert ps.enumerate_values(constraints, addr, limit=8) == values
        assert len(ps._enum_memo) == 1

    def test_slicing_ignores_disjoint_constraints(self):
        from repro.smt import mk_cmp, mk_const, mk_eq, mk_var, mk_zext
        from repro.symex.cache import PathSolver

        x, y = mk_var("tsb_sx", 8), mk_var("tsb_sy", 8)
        addr = mk_zext(x, 64)
        base = [mk_cmp("ule", addr, mk_const(1, 64))]
        ps = PathSolver(_fast_policy())
        first = ps.enumerate_values(base, addr, limit=8)
        # A sibling state's extra constraint over an unrelated variable
        # must not change the enumeration (memo key is the slice).
        extra = base + [mk_eq(mk_zext(y, 64), mk_const(7, 64))]
        assert ps.enumerate_values(extra, addr, limit=8) == first
        assert len(ps._enum_memo) == 1

    def test_limit_overflow_returns_none(self):
        from repro.smt import mk_var, mk_zext
        from repro.symex.cache import PathSolver

        x = mk_var("tsb_ov", 8)
        addr = mk_zext(x, 64)
        assert PathSolver(_fast_policy()).enumerate_values(
            [], addr, limit=4) is None


# -- VM decode-cache invalidation -------------------------------------------

class TestVMDecodeCacheSMC:
    def test_store_into_code_evicts_decodes(self):
        from repro.vm import Environment, Machine

        image = _image()
        machine = Machine(image, [b"x"], Environment())
        proc = machine.processes[machine.main_pid]
        entry = image.entry
        machine._fetch(proc, entry)
        assert entry in machine._decode_cache
        machine._evict_decoded(entry, 1)
        assert entry not in machine._decode_cache
        # Re-fetch decodes afresh from current memory bytes.
        assert machine._fetch(proc, entry).addr == entry
