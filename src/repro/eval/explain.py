"""Per-cell failure forensics: why does a Table II cell say what it says?

:func:`explain_cell` re-runs one (bomb, tool) pair with a provenance
collector and an observability recorder installed, then condenses the
three evidence streams into one :class:`CellDiagnosis`:

* the tainted-instruction chain (where symbolic data flowed),
* introduce/drop events (where it appeared and where it was lost —
  every engine diagnostic is mirrored here, so a non-solved cell is
  guaranteed at least one evidence item),
* minimized UNSAT cores (which guard pinned a refused negation),
* the per-stage wall-clock breakdown from the ``cell`` span.

Diagnoses serialize to JSON, render as markdown, and can be stored
next to the campaign result store
(:meth:`repro.service.store.ResultStore.put_diagnosis`), so a campaign
box accumulates an explanation per cell alongside each cached result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs, session
from ..obs import provenance
from ..bombs.suite import Bomb
from ..errors import ErrorStage
from .classify import describe_outcome
from .harness import CellResult, run_cell

#: Cap on taint-chain entries carried in one diagnosis; a crypto bomb
#: taints tens of thousands of instruction instances and the first links
#: of the chain are the diagnostic ones.
MAX_TAINT_EVIDENCE = 24


@dataclass
class EvidenceItem:
    """One piece of evidence behind a cell's label."""

    kind: str  #: "taint" | "introduce" | "drop" | "unsat-core"
    detail: str
    pc: int | None = None
    count: int = 1

    def to_json(self) -> dict:
        out = {"kind": self.kind, "detail": self.detail, "count": self.count}
        if self.pc is not None:
            out["pc"] = self.pc
        return out

    @classmethod
    def from_json(cls, data: dict) -> "EvidenceItem":
        return cls(kind=data["kind"], detail=data["detail"],
                   pc=data.get("pc"), count=data.get("count", 1))

    def render(self) -> str:
        loc = f" @0x{self.pc:x}" if self.pc is not None else ""
        times = f" (x{self.count})" if self.count > 1 else ""
        return f"[{self.kind}]{loc} {self.detail}{times}"


@dataclass
class CellDiagnosis:
    """Structured forensic report for one Table II cell."""

    bomb_id: str
    tool: str
    outcome: str
    expected: str | None
    summary: str
    evidence: list[EvidenceItem] = field(default_factory=list)
    #: distinct tainted PCs / tainted instruction executions, the
    #: Figure 3 pair of numbers for this cell.
    taint_pcs: int = 0
    taint_instances: int = 0
    #: wall seconds per pipeline stage (from the cell span).
    timings_s: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def solved(self) -> bool:
        return self.outcome == "ok"

    def to_json(self) -> dict:
        return {
            "bomb": self.bomb_id,
            "tool": self.tool,
            "outcome": self.outcome,
            "expected": self.expected,
            "summary": self.summary,
            "evidence": [e.to_json() for e in self.evidence],
            "taint_pcs": self.taint_pcs,
            "taint_instances": self.taint_instances,
            "timings_s": {k: round(v, 6)
                          for k, v in sorted(self.timings_s.items())},
            "elapsed_s": round(self.elapsed_s, 6),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CellDiagnosis":
        return cls(
            bomb_id=data["bomb"],
            tool=data["tool"],
            outcome=data["outcome"],
            expected=data.get("expected"),
            summary=data.get("summary", ""),
            evidence=[EvidenceItem.from_json(e)
                      for e in data.get("evidence", [])],
            taint_pcs=data.get("taint_pcs", 0),
            taint_instances=data.get("taint_instances", 0),
            timings_s=dict(data.get("timings_s", {})),
            elapsed_s=data.get("elapsed_s", 0.0),
        )

    def render(self) -> str:
        """Markdown-ish report for terminals and CI logs."""
        paper = f" (paper: {self.expected})" if self.expected else ""
        lines = [
            f"## {self.bomb_id} x {self.tool}: {self.outcome}{paper}",
            "",
            self.summary,
            "",
            f"- tainted instructions: {self.taint_instances} executions "
            f"over {self.taint_pcs} distinct PCs",
            f"- wall: {self.elapsed_s:.3f}s "
            + " ".join(f"{k}={v:.3f}s"
                       for k, v in sorted(self.timings_s.items())),
        ]
        if self.evidence:
            lines.append("")
            lines.append("Evidence:")
            for item in self.evidence:
                lines.append(f"- {item.render()}")
        return "\n".join(lines)


def diagnose(cell: CellResult,
             prov: provenance.ProvenanceCollector) -> CellDiagnosis:
    """Condense one cell result + its provenance into a diagnosis."""
    evidence: list[EvidenceItem] = []
    seen: dict[tuple, EvidenceItem] = {}

    def add(kind: str, detail: str, pc: int | None) -> None:
        # Identical events recur once per concolic round; aggregate
        # them into one item with a count, first-seen order.
        prior = seen.get((kind, detail, pc))
        if prior is not None:
            prior.count += 1
            return
        item = EvidenceItem(kind, detail, pc)
        seen[(kind, detail, pc)] = item
        evidence.append(item)

    for event in prov.events:
        if event.kind == "introduce":
            add("introduce", event.detail, event.pc)
    # Drops first when they match the classified stage (root cause
    # first), then the remaining drops in emission order.
    outcome = cell.label
    drops = prov.drops
    for matching in (True, False):
        for event in drops:
            if (event.stage == outcome) is not matching:
                continue
            cause = f"{event.cause}: {event.detail}" if event.cause else event.detail
            stage = f" [{event.stage}]" if event.stage else ""
            add("drop", cause + stage, event.pc)
    for core in prov.cores:
        for member in core.members:
            add("unsat-core",
                f"{member.kind} constraint pins the branch: {member.expr}",
                member.pc)
    for record in prov.chain()[:MAX_TAINT_EVIDENCE]:
        evidence.append(EvidenceItem(
            "taint", f"{record.op} carries symbolic data "
            f"(first at trace step {record.first_index})",
            record.pc, record.hits))

    return CellDiagnosis(
        bomb_id=cell.bomb_id,
        tool=cell.tool,
        outcome=outcome,
        expected=cell.expected,
        summary=describe_outcome(cell.outcome, cell.diagnostic),
        evidence=evidence,
        taint_pcs=len(prov.taint),
        taint_instances=prov.instances,
        timings_s=dict(cell.timings),
        elapsed_s=cell.report.elapsed,
    )


def explain_cell(bomb: Bomb, tool_name: str) -> CellDiagnosis:
    """Run one cell with forensics on and return its diagnosis.

    Runs in-process (no worker isolation): the provenance collector is
    process-global state, and explain exists to observe, not to guard
    against hangs.  An obs recorder is installed if the caller has
    none, so the stage wall breakdown is always populated.
    """
    outer = obs.active()
    prov = provenance.ProvenanceCollector()
    recorder = outer if outer is not None else obs.Recorder()
    with session.use(recorder=recorder, provenance=prov,
                     close=outer is None):
        cell = run_cell(bomb, tool_name)
    return diagnose(cell, prov)


def explain_matrix(bomb_ids, tools, store=None,
                   verbose: bool = False) -> list[CellDiagnosis]:
    """Diagnose every cell of a (sliced) Table II matrix.

    Each cell gets its own collector, so evidence never bleeds across
    cells.  With *store* (a :class:`repro.service.store.ResultStore`),
    every diagnosis is persisted next to the cached cell results.
    """
    from ..bombs import get_bomb

    diagnoses = []
    for bomb_id in bomb_ids:
        bomb = get_bomb(bomb_id)
        for tool_name in tools:
            with obs.span("explain", bomb=bomb_id, tool=tool_name):
                diag = explain_cell(bomb, tool_name)
            diagnoses.append(diag)
            if store is not None:
                from ..service.fingerprint import cell_key

                store.put_diagnosis(cell_key(bomb, tool_name), diag)
            if verbose:
                print(f"{bomb_id:20s} {tool_name:12s} {diag.outcome:4s} "
                      f"evidence={len(diag.evidence)}")
    return diagnoses
