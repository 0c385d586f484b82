"""The benchmark's workloads: fixed slices of the Table II matrix.

Each workload is a list of (bomb, tool) cells.  The seed only permutes
the order in which the cells run; the program receives the cells and
nothing else, so every seed must give the same labels and the same
deterministic work counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Table II column names (mirrors ``repro.bombs.TOOL_COLUMNS``; the
#: tests check the two agree).
COLUMNS = ("bapx", "tritonx", "angrx", "angrx_nolib", "sandshrewx", "hybridx")

#: Cells whose label differs from the hand-captured expected label in
#: ``bombs/suite.py`` on purpose.  cf_aes x angrx is the one documented
#: disagreement with the paper (E observed, Es2 in the paper).  Any other
#: mismatch fails the run's output check.
KNOWN_MISMATCHES = frozenset({("cf_aes", "angrx")})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[tuple[str, str], ...]
    #: >1 runs the cells through ``run_table2(jobs=, cache=)`` -- the
    #: campaign executor and result-store path -- instead of serially.
    jobs: int = 1


_TABLE2 = (
    "sv_time", "sv_web", "sv_syscall", "sv_arglen", "cp_stack", "cp_file",
    "cp_syscall", "cp_exception", "cp_file_exception", "pp_pthread",
    "pp_fork_pipe", "sa_l1_array", "sa_l2_array", "cs_file_name",
    "cs_syscall_name", "sj_jump", "sj_jump_array", "fp_float", "ef_sin",
    "ef_srand", "cf_sha1", "cf_aes",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "solve_heavy",
        "few huge one-shot CDCL queries (cp_exception @0x1143): SAT search "
        "is nearly all of the wall; fuzz, VM and store idle",
        (("cp_exception", "angrx_nolib"), ("cp_stack", "angrx_nolib")),
    ),
    Workload(
        "symex_arrays",
        "symbolic-array exploration: many small checks and enumeration "
        "solves, bit-blast encode, presolve, sandshrewx twins of angrx_nolib",
        (("sa_l1_array", "angrx_nolib"), ("sa_l1_array", "sandshrewx"),
         ("sa_l2_array", "angrx_nolib"), ("sj_jump", "angrx"),
         ("cf_aes", "angrx")),
    ),
    Workload(
        "concrete_exec",
        "VM-bound: trace recording, symbolic replay, fuzz executions and "
        "sandshrewx concrete fallback on crypto bombs; SAT nearly idle",
        (("cf_aes", "tritonx"), ("cf_sha1", "sandshrewx"),
         ("cf_sha1", "hybridx"), ("fp_float", "hybridx")),
    ),
    Workload(
        "store_jobs2",
        "all 22 bombs x (bapx, tritonx) through the jobs=2 executor and a "
        "fresh result store, then a warm rerun that must do no cell work",
        tuple((b, t) for b in _TABLE2 for t in ("bapx", "tritonx")),
        jobs=2,
    ),
)}


def ordered_cells(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """The workload's cells in the order *seed* gives them."""
    cells = list(workload.cells)
    random.Random(seed).shuffle(cells)
    return cells


def ordered_axes(workload: Workload, seed: int) -> tuple[tuple[str, ...],
                                                        tuple[str, ...]]:
    """(bomb ids, tools) of a matrix workload, each permuted by *seed*.

    ``run_table2`` takes a bomb list and a tool list, so a matrix
    workload permutes the two axes rather than single cells.
    """
    rng = random.Random(seed)
    bombs = list(dict.fromkeys(b for b, _ in workload.cells))
    tools = list(dict.fromkeys(t for _, t in workload.cells))
    rng.shuffle(bombs)
    rng.shuffle(tools)
    return tuple(bombs), tuple(tools)
