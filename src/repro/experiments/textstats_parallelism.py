"""§IV text statistics — α/β parallelism and path lengths.

The evaluation text reports: α between 10 and 1000 depending on path
length/breadth; β of 2.8–6 for the PASS speech program and 2.3–5 for
DMSNAP; maximum propagation path distances of 10–15 steps; and
400–900 SNAP instructions per sentence.
"""

from __future__ import annotations

from ..analysis.parallelism import parallelism_stats
from ..apps.nlu import MemoryBasedParser, build_domain_kb, sentences
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, nlu_config, timed


@experiment("textstats")
def run(fast: bool = True) -> ExperimentResult:
    """Measure α, β, path length, and instruction counts for NLU."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="textstats",
            title="Workload parallelism statistics (alpha, beta, path "
                  "lengths, instructions/sentence)",
            paper_claim="alpha in 10..1000; beta 2.3-6; max path 10-15 "
                        "steps; 400-900 instructions per sentence",
        )
        kb = build_domain_kb(total_nodes=2000 if fast else 9000)
        machine = SnapMachine(kb.network, nlu_config())
        parser = MemoryBasedParser(machine, kb, keep_trace=True)
        parses = parser.parse_text(sentences())

        programs = [program for program, _report in parser.trace_log]
        reports = [report for _program, report in parser.trace_log]
        stats = parallelism_stats(reports, programs)
        max_path = max(r.max_propagation_distance() for r in reports)
        instr = [p.instruction_count for p in parses]

        result.add(
            f"alpha: min={stats.alpha_min} max={stats.alpha_max} "
            f"mean={stats.alpha_mean:.1f} over {stats.propagates} "
            f"propagates (paper: 10..1000)"
        )
        result.add(
            f"beta overlap runs (DMSNAP-style text parser): "
            f"min={stats.beta_min:.1f} max={stats.beta_max:.1f} "
            f"mean={stats.beta_mean:.2f} (paper DMSNAP: 2.3..5)"
        )

        # PASS-style speech workload: competing word hypotheses per
        # time slot give the higher β band the paper reports.
        from ..apps.speech import SpeechParser, synthesize_lattice

        speech = SpeechParser(machine, kb)
        speech_results = [
            speech.understand(
                synthesize_lattice(text, confusability=0.95, seed=i)
            )
            for i, text in enumerate(sentences())
        ]
        speech_runs = [
            run for r in speech_results for run in r.beta_runs
        ]
        result.add(
            f"beta overlap runs (PASS-style speech parser): "
            f"min={min(speech_runs):.1f} max={max(speech_runs):.1f} "
            f"mean={sum(speech_runs) / len(speech_runs):.2f} "
            f"(paper PASS: 2.8..6)"
        )
        result.add(
            f"max propagation path: {max_path} steps (paper: 10..15)"
        )
        result.add(
            f"instructions per sentence: {min(instr)}..{max(instr)} "
            f"(paper: 400..900)"
        )
        result.data = {
            "alpha": stats.as_dict(),
            "beta_speech_max": max(speech_runs),
            "max_path": max_path,
            "instructions_per_sentence": instr,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
