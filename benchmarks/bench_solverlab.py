"""Solver-workload benchmark: capture, replay, and record the corpus.

Runs the flight recorder over a small representative matrix slice —
one bomb per dominant constraint-shape class (stack maze, array
select, jump table, SHA1, FP) under both engine families — then
replays the corpus (asserting zero verdict drift, the lab's core
guarantee) and writes ``BENCH_solverlab.json`` so ``bench_check.py``
can gate the total query count and the per-class solve wall across
revisions: a change that quietly doubles the solver's workload, or
shifts it into an expensive class, fails the gate even when total
wall clock stays inside runner noise.
"""

import json
import time
from pathlib import Path

from repro.eval import solverlab

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_solverlab.json"

#: One bomb per dominant constraint shape (plus the crypto row).
BOMBS = ("cp_stack", "sa_l1_array", "sj_jump", "cf_sha1", "fp_float")
TOOLS = ("tritonx", "angrx")


def _run(cache_dir):
    capture = solverlab.capture_matrix(bombs=BOMBS, tools=TOOLS,
                                       cache=str(cache_dir), verbose=False)
    replay = solverlab.replay_corpus(str(cache_dir), mode="fresh")
    report = solverlab.report_corpus(str(cache_dir))
    return capture, replay, report


def _write_bench_json(capture, report, wall_s) -> None:
    record = {
        "wall_s": round(wall_s, 3),
        "solverlab": {
            "queries": report["queries"],
            "distinct": report["distinct"],
            "dedup_ratio": report["dedup_ratio"],
            "attributed_wall_fraction": report["attributed_wall_fraction"],
            "class_queries": {cls: row["n"]
                              for cls, row in sorted(
                                  report["by_class"].items())},
            "class_wall_s": {cls: row["wall_s"]
                             for cls, row in sorted(
                                 report["by_class"].items())},
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")


def test_solverlab_benchmark(once, tmp_path):
    wall0 = time.perf_counter()
    capture, replay, report = once(_run, tmp_path / "store")
    wall_s = time.perf_counter() - wall0

    print(f"\n{'class':16s}{'queries':>9s}{'wall s':>10s}")
    for cls, row in sorted(report["by_class"].items(),
                           key=lambda kv: -kv[1]["wall_s"]):
        print(f"{cls:16s}{row['n']:>9d}{row['wall_s']:>10.3f}")

    # The lab's acceptance criterion: the replay reproduces every
    # captured verdict (and every one-shot query's CDCL effort)
    # exactly, and the report attributes all solve wall to named
    # classes.
    assert replay["drift"] == [], replay["drift"]
    assert replay["effort_drift"] == [], replay["effort_drift"]
    assert replay["queries"] == capture["queries"]
    assert report["attributed_wall_fraction"] == 1.0
    assert capture["queries"] > 0
    # The slice spans multiple constraint shapes — a single-class
    # corpus would gate nothing interesting.
    assert len(report["by_class"]) >= 3, report["by_class"]

    once.benchmark.extra_info["queries"] = report["queries"]
    once.benchmark.extra_info["distinct"] = report["distinct"]
    once.benchmark.extra_info["classes"] = sorted(report["by_class"])

    _write_bench_json(capture, report, wall_s)
    record = json.loads(BENCH_JSON.read_text())
    assert record["solverlab"]["queries"] == report["queries"]
    once.benchmark.extra_info["bench_json"] = str(BENCH_JSON.name)
