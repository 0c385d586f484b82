"""Forward dynamic taint accounting over a recorded trace.

The taint view is exactly "which instructions carry symbolic data" —
the metric Figure 3 of the paper reports (5 instructions propagate the
input without printf; 66 with it).  Rather than duplicating dataflow
logic, this module runs the symbolic trace replayer and reads its
counters; a separate boolean-taint engine would have to mirror every
propagation rule and would inevitably drift.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..binfmt import Image
from ..vm import Environment


@dataclass
class TaintSummary:
    """Counts from one taint pass over a concrete execution."""

    total_instructions: int
    tainted_instructions: int
    symbolic_branches: int
    model_nodes: int
    #: the per-instruction provenance chain, when a collector was
    #: active; None otherwise.
    provenance: object | None = None

    @property
    def tainted_fraction(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.tainted_instructions / self.total_instructions


def taint_summary(
    image: Image,
    argv: list[bytes],
    env: Environment | None = None,
    policy=None,
    max_steps: int = 1_000_000,
) -> TaintSummary:
    """Trace *image* on *argv* and report taint statistics.

    *policy* defaults to a full-fidelity trace policy (everything
    tracked), which is what the Figure 3 measurement wants.
    """
    from ..concolic.policy import ToolPolicy
    from ..concolic.replay import TraceReplayer
    from .tracer import record_trace

    if policy is None:
        policy = ToolPolicy(
            name="taint",
            supports_fp=True,
            lifts_stack_memory=True,
            signal_trace=True,
            cross_thread_taint=True,
            div_guard=True,
        )
    from .. import obs

    with obs.span("trace"):
        trace = record_trace(image, argv, env, max_steps=max_steps)
    replay = TraceReplayer(image, policy).replay(trace)
    model_nodes = sum(c.expr.size() for c in replay.constraints)
    obs.count("taint.model_nodes", model_nodes)
    return TaintSummary(
        total_instructions=replay.total_instructions,
        tainted_instructions=replay.tainted_instructions,
        symbolic_branches=len(replay.constraints),
        model_nodes=model_nodes,
        provenance=replay.provenance,
    )
