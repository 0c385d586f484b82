"""Execution-cache benchmark: cold vs warm exploration of one image.

The shared :mod:`repro.ir.superblock` cache is process-wide, so running
the same cell twice in one process exercises both halves of the cache
contract:

* the *cold* pass lifts and compiles everything (``lift.instructions``
  > 0, superblock misses dominate);
* the *warm* pass must re-lift **nothing** (``lift.instructions`` == 0)
  and serve superblocks from cache (``cache.superblock_hits`` > 0),
  while producing a byte-identical cell result — the cache must be a
  pure performance layer, invisible in outcomes.

The benched cells are the two slowest symbolic-array bombs, where
exploration (enumeration + interpretation) dominates the matrix cost.
"""

import time

from repro import obs
from repro.bombs import get_bomb
from repro.eval.harness import run_cell
from repro.ir import superblock
from repro.service.store import encode_cell

CELLS = (("sa_l1_array", "angrx"), ("sa_l2_array", "angrx"))


def _comparable(cell) -> dict:
    """The cell document minus everything timing-dependent."""
    doc = encode_cell(cell)
    doc.pop("timings", None)
    doc.pop("timings_self", None)
    doc["report"].pop("elapsed", None)
    return doc


def _run_pass():
    recorder = obs.Recorder()
    cells = []
    wall0 = time.perf_counter()
    with obs.recording(recorder):
        for bomb_id, tool in CELLS:
            cells.append(run_cell(get_bomb(bomb_id), tool))
    wall_s = time.perf_counter() - wall0
    return cells, recorder.snapshot()["counters"], wall_s


def test_bench_explore_cold_then_warm(once):
    superblock.reset()  # guarantee a genuinely cold first pass

    def both_passes():
        cold = _run_pass()
        warm = _run_pass()
        return cold, warm

    (cold_cells, cold_counters, cold_s), (warm_cells, warm_counters, warm_s) \
        = once(both_passes)

    # The cache is invisible in outcomes: warm results are byte-identical.
    for cold_cell, warm_cell in zip(cold_cells, warm_cells):
        assert _comparable(cold_cell) == _comparable(warm_cell)

    # Cold pass did the lifting; warm pass re-lifted nothing at all.
    assert cold_counters.get("lift.instructions", 0) > 0
    assert warm_counters.get("lift.instructions", 0) == 0

    # Warm superblock dispatch comes from the shared cache.
    assert warm_counters.get("cache.superblock_hits", 0) > 0
    assert warm_counters.get("cache.superblock_misses", 0) == 0

    bench = once.benchmark
    bench.extra_info["cold_wall_s"] = round(cold_s, 3)
    bench.extra_info["warm_wall_s"] = round(warm_s, 3)
    for key in ("cache.superblock_hits", "cache.enum_hits"):
        if key in warm_counters:
            bench.extra_info[key] = warm_counters[key]
