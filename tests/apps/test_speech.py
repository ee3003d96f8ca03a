"""PASS-style speech understanding."""

import pytest

from repro.apps import (
    LatticeError,
    MAX_ALTERNATIVES,
    SpeechParser,
    WordHypothesis,
    WordLattice,
    synthesize_lattice,
)
from repro.apps.nlu import build_domain_kb
from repro.machine import MachineConfig, SnapMachine


@pytest.fixture(scope="module")
def kb():
    return build_domain_kb(total_nodes=1500)


@pytest.fixture
def speech(kb):
    machine = SnapMachine(
        kb.network, MachineConfig(num_clusters=8, mus_per_cluster=2)
    )
    return SpeechParser(machine, kb)


class TestLattice:
    def test_slots_sorted_by_cost(self):
        lattice = WordLattice()
        lattice.add_slot([
            WordHypothesis("embassy", 0.9),
            WordHypothesis("army", 0.2),
        ])
        assert lattice.slots[0][0].word == "army"
        assert [slot[0].word for slot in lattice.slots] == ["army"]

    def test_empty_slot_rejected(self):
        with pytest.raises(LatticeError):
            WordLattice().add_slot([])

    def test_too_many_alternatives_rejected(self):
        with pytest.raises(LatticeError):
            WordLattice().add_slot(
                [WordHypothesis(f"w{i}", 0.1)
                 for i in range(MAX_ALTERNATIVES + 1)]
            )

    def test_synthesize_deterministic(self):
        a = synthesize_lattice("terrorists attacked", seed=3)
        b = synthesize_lattice("terrorists attacked", seed=3)
        assert a.slots == b.slots

    def test_synthesize_reference_is_best(self):
        lattice = synthesize_lattice(
            "terrorists attacked the mayor", confusability=1.0
        )
        assert [slot[0].word for slot in lattice.slots] == [
            "terrorists", "attacked", "the", "mayor"
        ]

    def test_confusability_zero_gives_linear_lattice(self):
        lattice = synthesize_lattice("terrorists attacked", confusability=0.0)
        assert lattice.mean_branching == 1.0


class TestUnderstanding:
    def test_clean_utterance_understood(self, speech):
        lattice = synthesize_lattice(
            "terrorists attacked the mayor in bogota", confusability=0.0
        )
        result = speech.understand(lattice)
        assert result.winner == "attack-event"
        assert result.cost is not None

    def test_noisy_utterance_still_understood(self, speech):
        lattice = synthesize_lattice(
            "guerrillas bombed the embassy", confusability=1.0
        )
        result = speech.understand(lattice)
        assert result.winner == "attack-event"

    def test_acoustic_cost_enters_hypothesis_cost(self, speech):
        cheap = WordLattice()
        dear = WordLattice()
        for word in ("terrorists", "attacked", "mayor"):
            cheap.add_slot([WordHypothesis(word, 0.1)])
            dear.add_slot([WordHypothesis(word, 0.9)])
        cost_cheap = speech.understand(cheap).cost
        cost_dear = speech.understand(dear).cost
        assert cost_cheap < cost_dear

    def test_beta_grows_with_branching(self, speech):
        narrow = speech.understand(
            synthesize_lattice("terrorists attacked the mayor",
                               confusability=0.0)
        )
        wide = speech.understand(
            synthesize_lattice("terrorists attacked the mayor",
                               confusability=1.0)
        )
        assert wide.beta_max > narrow.beta_max
        assert wide.beta_max >= 3

    def test_gap_tolerance(self, speech):
        """Function-word slots must not break sequence predictions."""
        lattice = WordLattice()
        for word in ("terrorists", "attacked", "the", "the", "mayor"):
            lattice.add_slot([WordHypothesis(word, 0.2)])
        result = speech.understand(lattice)
        assert result.winner == "attack-event"

    def test_oov_slots_skipped(self, speech):
        lattice = WordLattice()
        lattice.add_slot([WordHypothesis("zyzzyva", 0.1)])
        lattice.add_slot([WordHypothesis("terrorists", 0.1)])
        lattice.add_slot([WordHypothesis("attacked", 0.1)])
        lattice.add_slot([WordHypothesis("mayor", 0.1)])
        result = speech.understand(lattice)
        assert result.winner == "attack-event"

    def test_measurements_populated(self, speech):
        result = speech.understand(
            synthesize_lattice("guerrillas bombed the embassy")
        )
        assert result.time_us > 0
        assert result.instruction_count > 0
        assert result.beta_runs
        assert result.beta_mean <= result.beta_max
