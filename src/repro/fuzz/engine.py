"""The coverage-guided fuzzing engine.

One :class:`CoverageFuzzer` campaign runs three deterministic phases
against a single bomb image, all under one step budget:

1. caller-provided seeds (the bomb's seed argv, or branch-flip inputs
   handed over by the concolic engine in hybrid mode),
2. the deterministic cracking stage (:func:`~repro.fuzz.mutator.
   cracking_candidates`): numeric sweep + leetspeak dictionary,
3. AFL-style havoc over the corpus, scheduling entries round-robin.

Every execution feeds the VM's ``on_edge`` hook into a per-run slot
map; inputs that light new (slot, bucket) coverage bits join the
corpus.  The campaign stops at the first trigger, when the execution or
step budget runs out, or when havoc goes *dry* (a full stretch of
executions with no new coverage).

With a result store in the session (:func:`repro.session.use`)
finished campaigns persist under ``corpus/`` and an identical campaign
restores its corpus and verdict without executing anything — the warm
half of the cache contract the CI smoke asserts.

Observability: the campaign runs inside a ``fuzz`` span and reports
``fuzz.executions``, ``fuzz.corpus_adds``, ``fuzz.triggers``,
``fuzz.campaign_restores`` and a ``fuzz.edges`` histogram through
:mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

from .. import obs
from ..binfmt import Image
from ..vm import Environment, Machine
from . import corpus as corpus_mod
from .corpus import Corpus, campaign_key, edge_slot
from .mutator import Mutator, cracking_candidates
from .random_fuzzer import _XorShift


@dataclass(frozen=True)
class FuzzConfig:
    """Semantic knobs of one campaign; hashed into its corpus key."""

    seed: int = 0xF00D
    budget: int = 900  # executions
    max_steps: int = 120_000  # per execution
    total_steps: int = 8_000_000  # campaign-wide
    dry_limit: int = 200  # havoc executions with no new coverage
    persist: bool = True

    def fingerprint_payload(self) -> dict:
        payload = asdict(self)
        payload.pop("persist")  # operational, not semantic
        return payload


@dataclass
class CampaignResult:
    """Outcome of one coverage-guided campaign."""

    triggered: bool
    executions: int
    trigger_input: bytes | None
    corpus: Corpus = field(default_factory=Corpus)
    steps: int = 0
    restored: bool = False


class CoverageFuzzer:
    """Deterministic coverage-guided fuzzer for one image."""

    def __init__(
        self,
        image: Image,
        config: FuzzConfig | None = None,
        env: Environment | None = None,
        argv0: bytes = b"prog",
        fixed_tail: tuple[bytes, ...] = (),
    ):
        self.image = image
        self.config = config or FuzzConfig()
        self.env = env
        self.argv0 = argv0
        # Arguments after argv[1] stay fixed; only argv[1] is fuzzed.
        self.fixed_tail = tuple(fixed_tail)

    def _campaign_key(self, seeds: tuple[bytes, ...]) -> str:
        image_digest = hashlib.sha256(self.image.to_bytes()).hexdigest()
        payload = self.config.fingerprint_payload()
        payload["argv0"] = self.argv0.decode("latin1")
        payload["fixed_tail"] = [arg.decode("latin1") for arg in self.fixed_tail]
        payload["seeds"] = [arg.decode("latin1") for arg in seeds]
        return campaign_key(image_digest, payload)

    def execute(self, arg: bytes) -> tuple[bool, int, dict[int, int]]:
        """One monitored run: (triggered, steps, per-run edge counts)."""
        run_env = self.env.clone() if self.env else None
        machine = Machine(self.image, [self.argv0, arg, *self.fixed_tail], run_env)
        run_counts: dict[int, int] = {}

        def on_edge(src: int, dst: int) -> None:
            slot = edge_slot(src, dst)
            run_counts[slot] = run_counts.get(slot, 0) + 1

        machine.on_edge = on_edge
        result = machine.run(self.config.max_steps)
        obs.count("fuzz.executions")
        return result.bomb_triggered, result.steps, run_counts

    def campaign(self, seeds: tuple[bytes, ...] = ()) -> CampaignResult:
        """Run one campaign (restoring a persisted identical one)."""
        seeds = tuple(seeds)
        key = self._campaign_key(seeds)
        if self.config.persist:
            payload = corpus_mod.load_campaign(key)
            if payload is not None:
                obs.count("fuzz.campaign_restores")
                trigger = payload["trigger_input"]
                return CampaignResult(
                    triggered=payload["triggered"],
                    executions=payload["executions"],
                    trigger_input=None if trigger is None
                    else trigger.encode("latin1"),
                    corpus=Corpus.from_payload(payload["corpus"]),
                    steps=payload["steps"],
                    restored=True,
                )
        with obs.span("fuzz"):
            result = self._campaign(seeds)
        if self.config.persist:
            trigger = result.trigger_input
            corpus_mod.persist_campaign(key, {
                "triggered": result.triggered,
                "executions": result.executions,
                "trigger_input": None if trigger is None
                else trigger.decode("latin1"),
                "corpus": result.corpus.to_payload(),
                "steps": result.steps,
            })
        return result

    def _campaign(self, seeds: tuple[bytes, ...]) -> CampaignResult:
        config = self.config
        corpus = Corpus()
        rng = _XorShift(config.seed)
        mutator = Mutator(rng)
        tried: set[bytes] = set()
        executions = 0
        total_steps = 0

        def budget_left() -> bool:
            return (executions < config.budget
                    and total_steps < config.total_steps)

        def run_one(arg: bytes) -> bytes | None:
            """Execute *arg*; the trigger input if the bomb fired."""
            nonlocal executions, total_steps
            executions += 1
            triggered, steps, run_counts = self.execute(arg)
            total_steps += steps
            corpus.add(arg, run_counts, executions)
            if triggered:
                obs.count("fuzz.triggers")
                return arg
            return None

        def finish(trigger: bytes | None) -> CampaignResult:
            obs.observe("fuzz.edges", corpus.coverage.edges)
            return CampaignResult(
                triggered=trigger is not None,
                executions=executions,
                trigger_input=trigger,
                corpus=corpus,
                steps=total_steps,
            )

        # Phase 1+2: seeds, then the deterministic cracking stage.
        for arg in (*seeds, *cracking_candidates()):
            if not budget_left():
                return finish(None)
            if arg in tried:
                continue
            tried.add(arg)
            trigger = run_one(arg)
            if trigger is not None:
                return finish(trigger)

        # Phase 3: havoc over the corpus until dry or out of budget.
        dry = 0
        cursor = 0
        while budget_left() and dry < config.dry_limit:
            if not corpus.entries:
                base = b"0"
            else:
                base = corpus.entries[cursor % len(corpus.entries)].data
                cursor += 1
            arg = mutator.mutate(base, corpus.datas())
            if arg in tried:
                dry += 1
                continue
            tried.add(arg)
            before = len(corpus)
            trigger = run_one(arg)
            if trigger is not None:
                return finish(trigger)
            dry = 0 if len(corpus) > before else dry + 1
        return finish(None)
