"""Repository benchmark: fixed Table II slices, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve_heavy --seed 1 \
        --seconds 20 --trace 0

Each pass of the workload runs in a fresh process (``slice_run.py``),
one at a time, so the benchmark never uses more processes than the
workload itself asks for.  With ``--trace 0`` passes repeat until
``--seconds`` of timed work is spent (at least one pass) and the
end-to-end metrics are medians over the passes.  Times are reported at
the reference speed of the benchmark's speed probe (``speed.py``), which
takes the host's drift out of them; the raw walls are printed per pass.  With ``--trace 1`` one
untraced and one traced pass run; the traced pass gives the per-layer
metrics and its spans are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
list, units and bounds are in ``BENCHMARK.json``; what each metric
means is in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: A pass that fails to finish in this many seconds is killed.
PASS_TIMEOUT_S = 150


def _run_pass(workload: str, seed: int, trace: int, index: int | str,
              setup_only: bool = False) -> dict:
    tag = f"{workload}-s{seed}-t{trace}-p{index}"
    out_path = os.path.join(OUT, f"{tag}.json")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "slice_run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out_path]
    if trace:
        cmd += ["--spans", os.path.join(OUT, tag)]
    if setup_only:
        cmd.append("--setup-only")
    # In its own process group, so a pass that overruns is stopped
    # together with any executor workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, TMPDIR=tmp),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException as err:
        # Timeout, or run.py was interrupted: stop the whole pass.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise RuntimeError(f"pass {tag} ran over {PASS_TIMEOUT_S}s") \
                from None
        raise
    if proc.returncode != 0:
        sys.stderr.write(log)
        raise RuntimeError(f"pass {tag} exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as fp:
        return json.load(fp)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    return {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": _metric(statistics.median(p["setup_s"] for p in setups),
                           "s"),
        "peak_rss_mb": _metric(statistics.median(
            p["peak_rss_mb"] for p in passes), "MB"),
        "cells_solved": _metric(passes[0]["cells_solved"], "count"),
    }


def _per_layer(untraced: dict, traced: dict) -> dict:
    units = _layer_units()
    metrics = {name: _metric(value, units[name])
               for name, value in sorted(traced["layers"].items())}
    metrics["cells_mismatched"] = _metric(traced["cells_mismatched"], "count")
    metrics["cells_failed_frac"] = _metric(
        traced["cells_failed"] / traced["cells_attempted"], "frac")
    metrics["bench.trace_overhead_frac"] = _metric(
        traced["wall_s"] / untraced["wall_s"] - 1.0, "frac")
    metrics["bench.raw_wall_s"] = _metric(untraced["raw_wall_s"], "s")
    metrics["bench.probe_ms"] = _metric(
        1e3 * statistics.fmean(untraced["probe_s"]), "ms")
    return metrics


def _layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _consistent(passes: list[dict], setups: list[dict]) -> list[str]:
    """Every pass of one run must agree on labels and solved counts, and
    every set-up on the compiled images."""
    problems = []
    if len({s["image_digest"] for s in setups}) != 1:
        problems.append("bomb images differ between set-ups")
    for p in passes:
        problems += p["problems"]
        if p["labels"] != passes[0]["labels"]:
            problems.append(f"pass labels differ: {p['labels']}")
        if p["cells_solved"] != passes[0]["cells_solved"]:
            problems.append("solved count differs between passes")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running pass is stopped too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Byte-compile the program once, so no pass pays for it in set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], check=True,
                   stdout=subprocess.DEVNULL)

    passes: list[dict] = []
    setups: list[dict] = []
    traced = None
    try:
        if args.trace:
            passes.append(_run_pass(args.workload, args.seed, 0, 0))
            traced = _run_pass(args.workload, args.seed, 1, 1)
        else:
            spent = last = 0.0
            while not passes or spent + last <= args.seconds:
                passes.append(_run_pass(args.workload, args.seed, 0,
                                        len(passes)))
                last = sum(passes[-1]["raw_walls_s"])
                spent += last
            # One more set-up after the timed work: the machine's speed
            # drifts, so set-ups taken at two times of the run give a
            # steadier median than repeats taken back to back.
            setups.append(_run_pass(args.workload, args.seed, 0, "setup",
                                    setup_only=True))
    finally:
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)

    everything = passes + ([traced] if traced else [])
    setups = everything + setups
    problems = _consistent(everything, setups)
    for p in everything:
        print(f"pass seed={p['seed']} trace={p['trace']} "
              f"wall={p['wall_s']:.3f}s (raw {p['raw_wall_s']:.3f}s, probe "
              f"{1e3 * statistics.fmean(p['probe_s']):.3f}ms) "
              f"setup={p['setup_s']:.3f}s (raw {p['import_s']:.3f}"
              f"+{p['compile_s']:.3f}s) rss={p['peak_rss_mb']:.1f}MB "
              f"solved={p['cells_solved']} mismatched={p['cells_mismatched']}")
    print(f"{len(passes)} untraced pass(es), {len(setups)} set-ups; "
          "medians over them")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    metrics = _per_layer(passes[0], traced) if traced else \
        _end_to_end(passes, setups)
    failed = sum(p["cells_failed"] for p in everything)
    attempted = sum(p["cells_attempted"] for p in everything)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
