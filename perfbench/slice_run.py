"""One pass of one workload, in a fresh process.

Usage (from the repository root; ``run.py`` starts it)::

    python3 perfbench/slice_run.py --workload W --seed N --trace 0|1 \
        --out result.json [--spans STEM] [--setup-only]

Set-up runs before the timed region: it imports the program and
compiles the workload's bomb images, repeating the compile until
``COMPILE_MIN_S`` of compiling is spent and keeping the median.
Speed probes run right before and after it (``speed.py``), and the
set-up time is reported at the probes' reference speed.
``--setup-only`` stops there, which gives ``run.py`` a set-up sample at
another time of the run.

The timed region runs the workload's cells in seed order.  A matrix
workload (``jobs`` > 1) runs them through ``run_table2`` twice, in seed
order and in the reverse order, each time on a fresh result store: with
parallel workers the wall depends on when the slowest cell starts, and
the reversed order balances that out.  The pass's wall is the median of
the two.  Each run is sampled by the speed probe, every 0.1 s in an
untraced pass and only before and after it in a traced one, and its
wall is reported at the probe's reference speed; the raw walls are kept
beside it.

The output checks run after the timed region: solved claims re-trigger
the bomb on a fresh concrete VM run, labels are compared with
``bombs/suite.py``, and each store must serve a warm rerun with no
misses and identical output.  With ``--trace 1`` the timed region runs
under the per-layer ledger.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from speed import SpeedSampler  # noqa: E402
from workloads import (KNOWN_MISMATCHES, WORKLOADS,  # noqa: E402
                       ordered_axes, ordered_cells)

#: A set-up compiles the images again until this much compiling is
#: spent (at least once); its compile time is the median.
COMPILE_MIN_S = 0.5


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children (the
    larger of the two; Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _import_program():
    t0 = time.perf_counter()
    from repro import obs
    from repro.bombs import suite
    from repro.eval import harness
    from repro.service.store import ResultStore

    return (obs, suite, harness, ResultStore), time.perf_counter() - t0


def _compile_images(suite, bomb_ids) -> tuple[list[float], str]:
    """Compile the workload's images until COMPILE_MIN_S is spent; the
    last compile stays cached for the run.  Returns each compile's
    seconds and a digest of the images, which every compile must share.
    """
    times: list[float] = []
    digests = set()
    while sum(times) < COMPILE_MIN_S:
        suite._compile_bomb.cache_clear()
        t0 = time.perf_counter()
        images = [suite.get_bomb(b).image.to_bytes() for b in bomb_ids]
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(b"".join(images)).hexdigest())
    if len(digests) != 1:
        raise RuntimeError("bomb images differ between compiles")
    return times, digests.pop()


def _run_serial(harness, suite, cells):
    """[(bomb, tool, CellResult or None if it raised, wall s)]."""
    out = []
    for bomb_id, tool in cells:
        t0 = time.perf_counter()
        try:
            cell = harness.run_cell(suite.get_bomb(bomb_id), tool)
        except Exception:
            traceback.print_exc()
            cell = None
        out.append((bomb_id, tool, cell, time.perf_counter() - t0))
    return out


def _check_warm_rerun(obs, harness, workload, store, cold, problems):
    """A warm rerun on *store* must be all hits with identical output."""
    bombs = tuple(dict.fromkeys(b for b, _ in workload.cells))
    tools = tuple(dict.fromkeys(t for _, t in workload.cells))
    recorder = obs.Recorder()
    with obs.recording(recorder):
        warm = harness.run_table2(bombs, tools, jobs=workload.jobs,
                                  cache=store)
    hits = recorder.counters.get("service.cache_hits", 0)
    misses = recorder.counters.get("service.cache_misses", 0)
    if misses or hits != len(workload.cells):
        problems.append(f"warm rerun: {hits} hits, {misses} misses")
    if warm.to_json() != cold.to_json():
        problems.append("warm rerun output differs from the cold run")
    if len(cold.cells) != len(workload.cells):
        problems.append("matrix is missing cells")


def _check_cells(suite, cells, result) -> None:
    """Output checks shared by every workload (outside the timed region)."""
    solved = mismatched = failed = 0
    problems = result["problems"]
    for bomb_id, tool, cell, _wall in cells:
        if cell is None or cell.infra_failure:
            failed += 1
            problems.append(f"{bomb_id}x{tool}: failed")
            continue
        bomb = suite.get_bomb(bomb_id)
        expected = bomb.expected.get(tool)
        if cell.label != expected:
            mismatched += 1
            if (bomb_id, tool) not in KNOWN_MISMATCHES:
                problems.append(f"{bomb_id}x{tool}: {cell.label} "
                                f"(expected {expected})")
        if cell.label == "ok":
            report = cell.report
            if report.solution is not None and bomb.triggers(
                    report.solution, report.solution_env):
                solved += 1
            else:
                problems.append(f"{bomb_id}x{tool}: solved claim does not "
                                "re-trigger the bomb")
    result.update(cells_solved=solved, cells_mismatched=mismatched,
                  cells_failed=failed, cells_attempted=len(cells))
    result["labels"] = {f"{b}x{t}": (c.label if c is not None else None)
                        for b, t, c, _ in cells}
    result["cell_walls_s"] = {f"{b}x{t}": wall for b, t, _, wall in cells}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="stem for the traced pass's span files")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure one set-up and stop")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    bomb_ids = list(dict.fromkeys(b for b, _ in workload.cells))
    with SpeedSampler(periodic=False) as setup_speed:
        (obs, suite, harness, ResultStore), import_s = _import_program()
        compile_all, digest = _compile_images(suite, bomb_ids)
    compile_s = statistics.median(compile_all)
    result = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "import_s": import_s,
              "compile_s": compile_s,
              "setup_s": setup_speed.rescale(import_s + compile_s),
              "setup_probe_s": setup_speed.probe_s,
              "compile_all_s": compile_all, "images": len(bomb_ids),
              "image_digest": digest, "jobs": workload.jobs,
              "problems": []}
    if args.setup_only:
        _write(args.out, result)
        return 0

    tmpdir = tempfile.mkdtemp(prefix="pass-")
    try:
        if workload.jobs > 1:
            bombs, tools = ordered_axes(workload, args.seed)
            orders = [(bombs, tools), (bombs[::-1], tools[::-1])]
            stores = [ResultStore(os.path.join(tmpdir, f"store{i}"))
                      for i in range(len(orders))]
            runs = [functools.partial(harness.run_table2, b, t,
                                      jobs=workload.jobs, cache=store)
                    for (b, t), store in zip(orders, stores)]
        else:
            runs = [functools.partial(_run_serial, harness, suite,
                                      ordered_cells(workload, args.seed))]

        with ExitStack() as stack:
            if args.trace:
                import ledger as ledger_mod

                book = stack.enter_context(
                    ledger_mod.tracing(ledger_mod.Ledger(workload.name)))
                recorder = stack.enter_context(obs.recording(obs.Recorder()))
            outs, walls, rescaled, probes = [], [], [], []
            for run in runs:
                # The traced pass is probed only around the run, so no
                # probe lands inside a span.
                with SpeedSampler(periodic=not args.trace) as sampler:
                    t0 = time.perf_counter()
                    outs.append(run())
                    wall = time.perf_counter() - t0
                walls.append(wall - sampler.inside_s)
                rescaled.append(sampler.rescale(wall))
                probes.append(sampler.probe_s)
        result["peak_rss_mb"] = _peak_rss_mb()
        result["raw_walls_s"] = walls
        result["run_walls_s"] = rescaled
        result["probe_s"] = probes
        result["wall_s"] = statistics.median(rescaled)
        result["raw_wall_s"] = statistics.median(walls)

        if workload.jobs > 1:
            for store, cold in zip(stores, outs):
                _check_warm_rerun(obs, harness, workload, store, cold,
                                  result["problems"])
            cells = [(b, t, c, c.report.elapsed)
                     for (b, t), c in sorted(outs[0].cells.items())]
        else:
            cells = outs[0]
        _check_cells(suite, cells, result)
        busy = sum(c.report.elapsed for _, _, c, _ in cells if c is not None)
        result["cell_max_s"] = max((w for *_, w in cells), default=0.0)
        result["busy_frac"] = busy / (workload.jobs * walls[0])
        result["idle_core_s"] = workload.jobs * walls[0] - busy

        if args.trace:
            metrics = ledger_mod.layer_metrics(book, recorder.counters)
            metrics.update({
                "lang.images": len(bomb_ids),
                "lang.compile_s": result["compile_s"],
                "service.busy_frac": result["busy_frac"],
                "service.idle_core_s": result["idle_core_s"],
                "eval.cell_max_s": result["cell_max_s"],
                "bench.attributed_frac":
                    ledger_mod.attributed_s(book) / sum(walls),
            })
            result["layers"] = metrics
            if args.spans:
                result["span_files"] = book.write(args.spans)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    _write(args.out, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(result, fp, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
