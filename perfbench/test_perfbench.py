"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import speed  # noqa: E402
from workloads import (COLUMNS, KNOWN_MISMATCHES, WORKLOADS,  # noqa: E402
                       ordered_axes, ordered_cells)

from repro import obs  # noqa: E402
from repro.bombs import TABLE2_BOMB_IDS, TOOL_COLUMNS, get_bomb  # noqa: E402
from repro.eval.harness import run_cell  # noqa: E402

#: A tiny slice that still crosses the trace, symex, SAT, fuzz and
#: concrete-fallback layers (well under a second per cell).
SMOKE = (("cp_stack", "tritonx"), ("sv_arglen", "angrx_nolib"),
         ("ef_srand", "hybridx"), ("ef_sin", "sandshrewx"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def _catalogue_names() -> list[str]:
    """Metric names in the first column of METRICS.md's metric tables."""
    with open(os.path.join(HERE, "METRICS.md"), encoding="utf-8") as fp:
        text = fp.read()
    tables = text.split("## End-to-end metrics")[1].split("## Baseline")[0]
    return re.findall(r"^\| `([^`]+)` \|", tables, re.MULTILINE)


def _traced(cells, workload="smoke"):
    """Run *cells* under the ledger; (ledger, recorder, labels, wall)."""
    book = ledger.Ledger(workload)
    recorder = obs.Recorder()
    with ledger.tracing(book), obs.recording(recorder):
        t0 = time.perf_counter()
        labels = {cell: run_cell(get_bomb(cell[0]), cell[1]).label
                  for cell in cells}
        wall = time.perf_counter() - t0
    return book, recorder, labels, wall


def test_workload_cells_exist():
    assert COLUMNS == TOOL_COLUMNS
    cells = {cell for w in WORKLOADS.values() for cell in w.cells}
    for bomb, tool in cells:
        assert bomb in TABLE2_BOMB_IDS and tool in TOOL_COLUMNS, (bomb, tool)
    assert KNOWN_MISMATCHES <= cells
    matrix = WORKLOADS["store_jobs2"]
    assert {b for b, _ in matrix.cells} == set(TABLE2_BOMB_IDS)


def test_seed_permutes_order_only():
    for workload in WORKLOADS.values():
        a, b = ordered_cells(workload, 1), ordered_cells(workload, 2)
        assert sorted(a) == sorted(b) == sorted(workload.cells)
        assert ordered_cells(workload, 1) == a
    bombs, tools = ordered_axes(WORKLOADS["store_jobs2"], 3)
    assert sorted(bombs) == sorted(TABLE2_BOMB_IDS)
    assert sorted(tools) == ["bapx", "tritonx"]


def test_metric_names_and_limits():
    spec = _spec()
    end, layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in end + layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(_catalogue_names()) == sorted(names)
    assert "setup_s" in [m["name"] for m in end]
    assert max(m["bound"] for m in end) == \
        next(m["bound"] for m in end if m["name"] == "setup_s")


def test_wrapped_functions_restored():
    before = ledger.patched_attributes()
    book = ledger.Ledger("smoke")
    with pytest.raises(RuntimeError):
        with ledger.tracing(book):
            assert all(current is not original for (_, _, current), (_, _, original)
                       in zip(ledger.patched_attributes(), before))
            raise RuntimeError("leave the block early")
    _traced(SMOKE[:1])
    assert ledger.patched_attributes() == before


def test_self_times_within_wall_and_counts_repeat():
    book, recorder, labels, wall = _traced(SMOKE)
    attributed = ledger.attributed_s(book)
    assert 0.5 * wall < attributed <= wall
    metrics = ledger.layer_metrics(book, recorder.counters)
    for name in ("smt.queries", "vm.steps", "fuzz.execs", "symex.steps",
                 "concolic.replays", "bombs.triggers"):
        assert metrics[name] > 0, name
    # Another cell order: same labels, same deterministic work.
    book2, recorder2, labels2, _ = _traced(SMOKE[::-1])
    again = ledger.layer_metrics(book2, recorder2.counters)
    assert labels2 == labels
    for name in ("smt.conflicts", "smt.decisions", "smt.gates",
                 "smt.queries", "smt.search_calls", "vm.steps", "vm.runs",
                 "fuzz.execs", "symex.steps"):
        assert again[name] == metrics[name], name


def test_speed_sampler_restores_alarm_and_rescales():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        busy(0.5)
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Bracketing probes plus about one probe per interval inside.
    assert len(sampler.samples) >= 2 * speed.BRACKET + 2
    assert 0 < sampler.inside_s < wall
    expected = (wall - sampler.inside_s) * speed.PROBE_REF_S / sampler.probe_s
    assert sampler.rescale(wall) == pytest.approx(expected)
    with speed.SpeedSampler(periodic=False) as bracketed:
        busy(0.3)
    assert len(bracketed.samples) == 2 * speed.BRACKET
    assert bracketed.inside_s == 0.0


def test_spans_export(tmp_path):
    book, *_ = _traced(SMOKE[:1])
    json_path, chrome_path = book.write(str(tmp_path / "smoke"))
    spans = json.loads(open(json_path).read())
    assert spans and {"name", "start", "end", "parent", "workload"} <= \
        set(spans[0])
    events = json.loads(open(chrome_path).read())["traceEvents"]
    assert len(events) == len(spans)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
