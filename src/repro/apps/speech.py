"""Speech understanding on SNAP: the PASS-style workload.

The paper's second primary application area is Speech Processing; the
**PASS** speech understanding program is the workload whose
inter-propagation parallelism the paper measures at β between 2.8 and
6 (§II-C) — higher than the text parser's, because a speech recognizer
supplies *competing word hypotheses per time slot*, and each
alternative's activation climb is marker-independent, so the
controller overlaps them all.

This module implements that structure: a :class:`WordLattice` of
time-indexed word hypotheses with acoustic costs (the synthetic stand-
in for a 1991 HMM front end), and a :class:`SpeechParser` that
evaluates all alternatives of a slot in parallel against the same
concept-sequence knowledge base the text parser uses.  The winning
reading minimizes acoustic + knowledge-base cost, exactly the
"strength values of competing hypotheses" the TMS320C30's FPU was
selected for (§III-A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import (
    AndMarker,
    ClearMarker,
    CollectMarker,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    complex_marker,
)
from ..isa.program import SnapProgram
from ..isa.rules import chain, step
from ..network.node import Color
from .nlu.kbgen import DomainKB
from .nlu.parser import (
    M_CONF,
    M_DONE,
    M_ELEM,
    M_FIRST,
    M_HIST,
    M_PRED,
    M_ROOT,
)

#: Maximum competing word hypotheses per time slot (the PASS β range
#: tops out at 6).
MAX_ALTERNATIVES = 6

#: Marker pools for parallel alternative evaluation (disjoint from the
#: text parser's 0-19 and the inferencing apps' 20-46 banks).
M_ACT_POOL = tuple(complex_marker(48 + i) for i in range(MAX_ALTERNATIVES))
M_CLS_POOL = tuple(complex_marker(54 + i) for i in range(MAX_ALTERNATIVES))

#: Acoustically confusable in-vocabulary word sets used to synthesize
#: recognition alternatives (all members are in the domain lexicon).
CONFUSION_PAIRS: Tuple[Tuple[str, ...], ...] = (
    ("attacked", "attacks", "attack", "abducted"),
    ("bombed", "bomb", "bus", "bridge"),
    ("killed", "kidnapped", "claimed", "kidnapping"),
    ("murdered", "murder", "morning", "mayor"),
    ("guerrillas", "guerrilla", "casualties", "civilians"),
    ("terrorists", "terrorist", "journalists", "peasants"),
    ("mayor", "men", "monday", "murder"),
    ("embassy", "army", "ambassador", "assassinated"),
    ("city", "civilians", "colombia", "casualties"),
    ("reported", "exploded", "residence", "reportedly"),
    ("today", "yesterday", "they", "destroyed"),
    ("bogota", "colombia", "bridge", "bomb"),
    ("soldiers", "several", "said", "salvador"),
    ("weapons", "peasants", "vehicles", "vehicle"),
    ("police", "peru", "pipeline", "place"),
    ("damaged", "dynamite", "destroyed", "damage"),
    ("injured", "judge", "group", "journalists"),
)


class LatticeError(ValueError):
    """Raised for malformed word lattices."""


@dataclass(frozen=True)
class WordHypothesis:
    """One recognized word alternative with its acoustic cost."""

    word: str
    acoustic_cost: float


@dataclass
class WordLattice:
    """Time-indexed competing word hypotheses.

    ``slots[t]`` holds the alternatives the recognizer proposes for
    time slot ``t``, best (lowest acoustic cost) first.
    """

    slots: List[List[WordHypothesis]] = field(default_factory=list)

    def add_slot(self, alternatives: Sequence[WordHypothesis]) -> None:
        """Append a time slot of competing word hypotheses."""
        if not alternatives:
            raise LatticeError("a lattice slot needs >= 1 hypothesis")
        if len(alternatives) > MAX_ALTERNATIVES:
            raise LatticeError(
                f"at most {MAX_ALTERNATIVES} alternatives per slot"
            )
        self.slots.append(
            sorted(alternatives, key=lambda h: h.acoustic_cost)
        )

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def mean_branching(self) -> float:
        """Mean hypotheses per slot."""
        if not self.slots:
            return 0.0
        return sum(len(s) for s in self.slots) / len(self.slots)

def synthesize_lattice(
    sentence: str,
    confusability: float = 0.7,
    seed: int = 17,
    confusions: Sequence[Tuple[str, ...]] = CONFUSION_PAIRS,
) -> WordLattice:
    """Derive a recognition lattice from a reference sentence.

    Each reference word gets acoustic cost ~U(0.1, 0.4); with
    probability ``confusability`` a slot also receives its confusion
    set's other members at higher costs, the way an HMM front end
    ranks near-homophones.
    """
    rng = random.Random(seed)
    table: Dict[str, List[str]] = {}
    for group in confusions:
        for member in group:
            others = [w for w in group if w != member]
            table.setdefault(member, []).extend(
                w for w in others if w not in table.get(member, ())
            )
    lattice = WordLattice()
    for word in sentence.lower().split():
        alternatives = [
            WordHypothesis(word, round(rng.uniform(0.1, 0.4), 3))
        ]
        if rng.random() < confusability:
            for other in table.get(word, ())[: MAX_ALTERNATIVES - 1]:
                alternatives.append(
                    WordHypothesis(other, round(rng.uniform(0.5, 1.2), 3))
                )
        lattice.add_slot(alternatives)
    return lattice


@dataclass
class SpeechResult:
    """Outcome of understanding one utterance."""

    lattice: WordLattice
    #: Winning event hypothesis (concept-sequence root).
    winner: Optional[str]
    cost: Optional[float]
    candidates: List[Tuple[str, float]]
    time_us: float
    instruction_count: int
    #: β overlap-run sizes of the generated programs (the PASS numbers).
    beta_runs: List[int]

    @property
    def beta_max(self) -> float:
        """Largest overlap run (peak beta)."""
        return float(max(self.beta_runs)) if self.beta_runs else 0.0

    @property
    def beta_mean(self) -> float:
        """Mean overlap-run length."""
        if not self.beta_runs:
            return 0.0
        return sum(self.beta_runs) / len(self.beta_runs)


class SpeechParser:
    """Understands word lattices by parallel hypothesis evaluation."""

    def __init__(self, machine: Any, kb: DomainKB,
                 keep_trace: bool = False) -> None:
        self.machine = machine
        self.kb = kb
        self.keep_trace = keep_trace
        self.trace_log: List[Tuple[SnapProgram, Any]] = []

    def understand(self, lattice: WordLattice) -> SpeechResult:
        """Run the utterance through the array; return the reading."""
        time_us = 0.0
        instructions = 0
        beta_runs: List[int] = []

        def run(program: SnapProgram):
            """Run to completion; returns the result/report."""
            nonlocal time_us, instructions
            report = self.machine.run(program)
            if self.keep_trace:
                self.trace_log.append((program, report))
            beta_runs.extend(program.beta_profile())
            time_us += report.total_time_us
            instructions += len(report.traces)
            return report

        run(self._init_program())
        for slot in lattice.slots:
            alternatives = [
                h for h in slot if self.kb.has_word(h.word)
            ][:MAX_ALTERNATIVES]
            if not alternatives:
                continue
            run(self._slot_program(alternatives))
        report = run(self._final_program())
        collected = report.results()
        raw = collected[-1] if collected else []
        candidates = [
            (self.kb.network.node(gid).name, round(value, 4))
            for gid, value, _origin in raw
            if self.kb.network.node(gid).color == Color.CS_ROOT
        ]
        candidates.sort(key=lambda item: item[1])
        winner, cost = (candidates[0] if candidates else (None, None))
        return SpeechResult(
            lattice=lattice,
            winner=winner,
            cost=cost,
            candidates=candidates,
            time_us=time_us,
            instruction_count=instructions,
            beta_runs=beta_runs,
        )

    # ------------------------------------------------------------------
    def _init_program(self) -> SnapProgram:
        program = SnapProgram(name="speech-init")
        for marker in (M_PRED, M_CONF, M_DONE, M_HIST, M_ROOT, M_FIRST,
                       M_ELEM) + M_ACT_POOL + M_CLS_POOL:
            program.append(ClearMarker(marker))
        program.append(SearchColor(Color.CS_ROOT, M_ROOT, 0.0))
        program.append(SearchColor(Color.CS_AUX, M_ROOT, 0.0))
        program.append(
            Propagate(M_ROOT, M_FIRST, step("first"), "add-weight")
        )
        program.append(OrMarker(M_FIRST, M_FIRST, M_PRED, "first"))
        return program

    def _slot_program(
        self, alternatives: Sequence[WordHypothesis]
    ) -> SnapProgram:
        """Evaluate all of a slot's word hypotheses in parallel.

        Each alternative gets its own activation/class marker pair,
        seeded with the *acoustic cost* so the upward climb accumulates
        acoustic + link costs together; all climbs are
        marker-independent, so β equals the slot's branching factor.
        """
        program = SnapProgram(name="speech-slot")
        program.append(ClearMarker(M_ELEM))
        program.append(ClearMarker(M_CONF))
        merged = complex_marker(60)
        program.append(ClearMarker(merged))
        for i, hypothesis in enumerate(alternatives):
            program.append(ClearMarker(M_ACT_POOL[i]))
            program.append(ClearMarker(M_CLS_POOL[i]))
            program.append(
                SearchNode(
                    f"w:{hypothesis.word}", M_ACT_POOL[i],
                    hypothesis.acoustic_cost,
                )
            )
        for i in range(len(alternatives)):
            program.append(
                Propagate(
                    M_ACT_POOL[i], M_CLS_POOL[i], chain("is-a"),
                    "add-weight",
                )
            )
        # Competing hypotheses merge by minimum cost — the cheaper
        # acoustic reading wins wherever both activate a class.
        for i in range(len(alternatives)):
            program.append(
                OrMarker(M_CLS_POOL[i], merged, merged, "min")
            )
        program.append(
            Propagate(merged, M_ELEM, step("syntax-of"), "add-weight")
        )
        program.append(AndMarker(M_ELEM, M_PRED, M_CONF, "add"))
        program.append(OrMarker(M_CONF, M_HIST, M_HIST, "max"))
        # Advance predictions *without* dropping unconfirmed ones: a
        # speech slot may carry only function words or recognition
        # noise, so hypotheses tolerate gaps (unlike the text parser,
        # whose phrasal chunks guarantee content per segment).
        advanced = complex_marker(61)
        program.append(ClearMarker(advanced))
        program.append(
            Propagate(M_CONF, advanced, step("next"), "add-weight")
        )
        program.append(OrMarker(advanced, M_PRED, M_PRED, "min"))
        program.append(Propagate(M_CONF, M_DONE, step("last"), "add-weight"))
        program.append(OrMarker(M_PRED, M_FIRST, M_PRED, "first"))
        return program

    def _final_program(self) -> SnapProgram:
        program = SnapProgram(name="speech-final")
        program.append(CollectMarker(M_DONE))
        return program
