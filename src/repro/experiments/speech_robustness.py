"""Extension study — speech understanding under recognition noise.

The paper names Speech Processing as a primary SNAP application and
quotes the PASS program's parallelism, but publishes no speech
accuracy figures.  This extension measures what the architecture's
parallel hypothesis evaluation buys: how often the knowledge base
recovers the correct event reading as the word lattice gets noisier
(more competing hypotheses per slot), and how the workload's
β-parallelism grows with lattice branching.
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.nlu import build_domain_kb
from ..apps.speech import SpeechParser, synthesize_lattice
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, nlu_config, timed

#: Utterances with unambiguous clean readings.
UTTERANCES = (
    "terrorists attacked the mayor in bogota",
    "guerrillas bombed the embassy",
    "several men kidnapped the ambassador in lima",
    "soldiers murdered two civilians yesterday",
    "the army reported three casualties today",
)


@experiment("speech")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep lattice confusability; measure reading accuracy and β."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="speech",
            title="EXTENSION: speech understanding vs recognition noise "
                  "(PASS-style workload)",
            paper_claim="(not a paper figure) SS I names Speech "
                        "Processing as a primary application; SS II-C "
                        "reports PASS beta of 2.8-6",
        )
        kb = build_domain_kb(total_nodes=2000 if fast else 5000)
        machine = SnapMachine(kb.network, nlu_config())
        parser = SpeechParser(machine, kb)

        # Reference readings from clean lattices.
        reference: Dict[str, str] = {}
        for utterance in UTTERANCES:
            clean = parser.understand(
                synthesize_lattice(utterance, confusability=0.0)
            )
            reference[utterance] = clean.winner

        levels = [0.0, 0.5, 1.0]
        seeds = range(3 if fast else 8)
        result.add(
            f"{'confusability':>14}{'branching':>11}{'accuracy':>10}"
            f"{'beta max':>10}{'time/utt':>12}"
        )
        rows: List[Dict] = []
        for level in levels:
            correct = 0
            total = 0
            branching = 0.0
            beta_max = 0.0
            time_us = 0.0
            for seed in seeds:
                for utterance in UTTERANCES:
                    lattice = synthesize_lattice(
                        utterance, confusability=level, seed=seed
                    )
                    outcome = parser.understand(lattice)
                    total += 1
                    branching += lattice.mean_branching
                    beta_max = max(beta_max, outcome.beta_max)
                    time_us += outcome.time_us
                    if outcome.winner == reference[utterance]:
                        correct += 1
            row = {
                "confusability": level,
                "accuracy": correct / total,
                "mean_branching": branching / total,
                "beta_max": beta_max,
                "time_us_per_utterance": time_us / total,
            }
            rows.append(row)
            result.add(
                f"{level:>14.1f}{row['mean_branching']:>11.2f}"
                f"{100 * row['accuracy']:>9.0f}%{beta_max:>10.0f}"
                f"{time_us / total / 1e3:>10.2f}ms"
            )
        result.add()
        result.add(
            f"knowledge-based disambiguation holds "
            f"{100 * rows[-1]['accuracy']:.0f}% of readings at full "
            f"confusability (clean baseline 100%); beta reaches "
            f"{rows[-1]['beta_max']:.0f} (paper PASS band: up to 6)"
        )
        result.data = {"rows": rows}
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
