"""Table II: the paper's headline experiment.

Runs all 22 logic bombs against the four evaluated tool configurations,
classifies every cell, and compares against the paper's reported
labels.  The shape criteria from the paper:

* every challenge retains at least one case no tool solves;
* headline solve counts: BAP 2, Triton 1, the Angr family 4;
* the per-cell agreement is reported (and must stay high).
"""

import json
import time
from pathlib import Path

from repro import obs
from repro.eval import render_table2, run_table2, verify_table1_against_observations

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_table2.json"


def _write_bench_json(result, snap, wall_s) -> None:
    """Persist the matrix cost profile for cross-revision comparison."""
    counters = snap["counters"]
    record = {
        "wall_s": round(wall_s, 3),
        "solved_counts": result.solved_counts(),
        "agreement": dict(zip(("matched", "labelled"), result.agreement())),
        "solver": {
            key.split(".", 1)[1]: counters[key]
            for key in ("smt.queries", "smt.assumption_queries",
                        "smt.prefix_reuse", "smt.conflicts", "smt.gates")
            if key in counters
        },
        "stage_wall_s": {
            name: round(stat["wall_s"], 4)
            for name, stat in sorted(snap["spans"].items())
            if name in ("trace", "lift", "extract", "solve", "replay",
                        "explore")
        },
        # Exclusive per-stage self-time: wall minus time spent in nested
        # child spans (solve nests inside explore, so the inclusive
        # figures above double-count and sum past the total wall).
        "stage_self_wall_s": {
            name: round(stat.get("self_s", stat["wall_s"]), 4)
            for name, stat in sorted(snap["spans"].items())
            if name in ("trace", "lift", "extract", "solve", "replay",
                        "explore")
        },
        "cache": {
            key.split(".", 1)[1]: counters[key]
            for key in ("cache.superblock_hits", "cache.superblock_misses",
                        "cache.lift_store_hits")
            if key in counters
        },
        "cells": [
            {
                "bomb": cell.bomb_id,
                "tool": cell.tool,
                "outcome": cell.label,
                "wall_s": round(cell.report.elapsed, 4),
                "timings_s": {k: round(v, 4)
                              for k, v in sorted(cell.timings.items())},
                "timings_self_s": {
                    k: round(v, 4)
                    for k, v in sorted(getattr(cell, "timings_self",
                                               {}).items())},
            }
            for _, cell in sorted(result.cells.items())
        ],
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")


def test_table2_full_matrix(once):
    recorder = obs.Recorder()
    wall0 = time.perf_counter()
    with obs.recording(recorder):
        result = once(run_table2)
    wall_s = time.perf_counter() - wall0
    print("\n" + render_table2(result))

    counts = result.solved_counts()
    assert counts["bapx"] == 2, counts
    assert counts["tritonx"] == 1, counts
    assert result.solved_by_angr_family() == 4

    # Paper: "for all the challenges, there exist at least one test case
    # which cannot be handled by all the tools" — i.e. no challenge has a
    # case that *every* configuration solves (the paper's own parallel
    # rows each have one solving tool, so the stronger reading is false
    # even for the original data).
    from repro.bombs import CHALLENGES, TABLE2_BOMB_IDS, get_bomb
    from repro.errors import ErrorStage

    for prefix, challenge in CHALLENGES.items():
        rows = [b for b in TABLE2_BOMB_IDS if b.startswith(prefix + "_")]
        if not rows:
            continue  # the extension set is not part of Table II
        assert any(
            any(result.cells[(b, t)].outcome is not ErrorStage.OK
                for t in ("bapx", "tritonx", "angrx", "angrx_nolib"))
            for b in rows
        ), f"challenge {challenge} is fully solved by every tool"

    match, total = result.agreement()
    print(f"\ncell agreement with the paper: {match}/{total}")
    assert match >= int(total * 0.9), "cell agreement dropped below 90%"

    violations = verify_table1_against_observations(result)
    assert not violations, violations

    once.benchmark.extra_info["agreement"] = f"{match}/{total}"
    once.benchmark.extra_info["solved"] = counts

    # The per-stage cost profile of the whole matrix, from the recorder:
    # where the pipeline actually spends its time (trace/lift/extract/
    # solve/replay), plus the headline work counters.
    snap = recorder.snapshot()
    once.benchmark.extra_info["stage_wall_s"] = {
        name: round(stat["wall_s"], 4)
        for name, stat in sorted(snap["spans"].items())
        if name in ("trace", "lift", "extract", "solve", "replay", "explore")
    }
    for key in ("smt.queries", "smt.conflicts", "concolic.rounds",
                "vm.instructions", "taint.instructions_tainted"):
        if key in snap["counters"]:
            once.benchmark.extra_info[key] = snap["counters"][key]
    assert snap["counters"].get("smt.queries", 0) > 0
    assert "solve" in snap["spans"] and "trace" in snap["spans"]

    _write_bench_json(result, snap, wall_s)
    record = json.loads(BENCH_JSON.read_text())
    assert record["wall_s"] > 0 and len(record["cells"]) == len(result.cells)
    assert record["solver"]["gates"] > 0 and record["solver"]["conflicts"] >= 0
    once.benchmark.extra_info["bench_json"] = str(BENCH_JSON.name)
