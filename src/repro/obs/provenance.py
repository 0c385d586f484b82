"""Provenance collection: the evidence behind every Table II label.

The observability layer (:mod:`repro.obs.core`) answers *how much* —
counters and span timings.  This module answers *why*: which
instructions carried symbolic data, where a symbolic byte was
introduced or dropped, and which constraints made a branch negation
UNSAT.  The paper's Figure 3 argument (printf blowing 5 tainted
instructions up to 66) and its Es3 attributions are exactly provenance
claims; the collector turns them into per-instruction records.

The collector is the ``provenance`` slot of the instrumentation
session (:func:`repro.session.use`), which publishes its ``prov.*``
counters into the session's recorder on exit.  The module-level
:func:`active` hook is one session read plus a ``None`` check, so
engines that consult it stay near-free when forensics are off (the
default — nothing installs a collector unless ``repro explain`` or a
test asks for one).

Four record kinds:

* **introduce** — a symbolic byte came into existence (an argv byte
  declared by the input model).
* **taint** — an executed instruction read or wrote symbolic data.
  Aggregated per PC with a hit count and first-seen trace index, so
  the chain is both a per-instruction report and an exact instance
  count (``instances`` reproduces Figure 3's 5 → 66 delta).
* **drop** — symbolic data or a solver obligation was abandoned; every
  :class:`repro.errors.Diagnostic` emission is mirrored here, which
  guarantees at least one evidence item for every non-solved cell.
* **core** — a minimized UNSAT core for a failed branch negation, each
  member tagged with the PC of the guard that asserted it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import session as _session


@dataclass
class TaintRecord:
    """One distinct instruction that touched symbolic data."""

    pc: int
    op: str
    first_index: int  #: trace step index of the first tainted execution
    hits: int = 1

    def to_json(self) -> dict:
        return {"pc": self.pc, "op": self.op,
                "first_index": self.first_index, "hits": self.hits}


@dataclass
class ProvEvent:
    """An introduce or drop event, in emission order."""

    kind: str  #: "introduce" | "drop"
    detail: str
    pc: int | None = None
    stage: str | None = None  #: error-stage label for drops, e.g. "Es2"
    cause: str | None = None  #: diagnostic kind for drops, e.g. "taint-lost"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "detail": self.detail}
        if self.pc is not None:
            out["pc"] = self.pc
        if self.stage is not None:
            out["stage"] = self.stage
        if self.cause is not None:
            out["cause"] = self.cause
        return out


@dataclass
class CoreMember:
    """One constraint in a minimized UNSAT core."""

    pc: int | None
    kind: str  #: "branch" | "div-guard" | "negation" | ...
    expr: str

    def to_json(self) -> dict:
        return {"pc": self.pc, "kind": self.kind, "expr": self.expr}


@dataclass
class UnsatCore:
    """A minimized explanation of one UNSAT branch negation."""

    pc: int | None  #: PC of the branch whose negation was attempted
    members: list[CoreMember] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"pc": self.pc,
                "members": [m.to_json() for m in self.members]}


class ProvenanceCollector:
    """Accumulates provenance records for one analysis run.

    Engines look the collector up once per run (not per step) and keep
    the reference in a local; the per-record methods are only reached
    on paths already conditioned on symbolic data.
    """

    def __init__(self):
        #: insertion-ordered: first key is the first tainted PC.
        self.taint: dict[int, TaintRecord] = {}
        self.events: list[ProvEvent] = []
        self.cores: list[UnsatCore] = []
        #: total tainted instruction *executions* (Figure 3's unit).
        self.instances = 0

    # -- recording --------------------------------------------------------

    def introduce(self, detail: str, pc: int | None = None) -> None:
        self.events.append(ProvEvent("introduce", detail, pc))

    def record_taint(self, pc: int, op: str, index: int) -> None:
        self.instances += 1
        rec = self.taint.get(pc)
        if rec is None:
            self.taint[pc] = TaintRecord(pc, op, index)
        else:
            rec.hits += 1

    def drop(self, cause: str, detail: str, pc: int | None = None,
             stage: str | None = None) -> None:
        self.events.append(ProvEvent("drop", detail, pc, stage, cause))

    def record_core(self, pc: int | None, members: list[CoreMember]) -> None:
        self.cores.append(UnsatCore(pc, list(members)))

    # -- reading ----------------------------------------------------------

    @property
    def introductions(self) -> list[ProvEvent]:
        return [e for e in self.events if e.kind == "introduce"]

    @property
    def drops(self) -> list[ProvEvent]:
        return [e for e in self.events if e.kind == "drop"]

    def chain(self) -> list[TaintRecord]:
        """The tainted-instruction chain in first-execution order."""
        return list(self.taint.values())

    def snapshot(self) -> dict:
        return {
            "taint": [r.to_json() for r in self.chain()],
            "instances": self.instances,
            "events": [e.to_json() for e in self.events],
            "cores": [c.to_json() for c in self.cores],
        }

    def flush_to(self, recorder) -> None:
        """Publish the ``prov.*`` counters to *recorder* (if any)."""
        if recorder is None:
            return
        intro = len(self.introductions)
        for name, value in (("prov.taint_pcs", len(self.taint)),
                            ("prov.taint_instances", self.instances),
                            ("prov.introduced", intro),
                            ("prov.drops", len(self.events) - intro),
                            ("prov.unsat_cores", len(self.cores))):
            if value:
                recorder.count(name, value)


# -- module-level hook --------------------------------------------------------

def active() -> ProvenanceCollector | None:
    """The installed collector, or None when forensics are off."""
    return _session._current.provenance
