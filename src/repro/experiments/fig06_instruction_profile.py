"""Fig. 6 — relative instruction frequency and execution time.

*"Instruction profiles were measured for NLU applications on a single
processor ... while the number of PROPAGATE operations is only 17.0%
of the total instructions executed, they consume 64.5% of the overall
processing time.  Thus propagation should be optimized since it
dominates execution time."*
"""

from __future__ import annotations

from ..analysis.profiles import (
    format_profile_table,
    profile_from_parse_results,
)
from ..apps.nlu import MemoryBasedParser, build_domain_kb, sentences
from ..baselines.serial import SerialMachine
from .common import ExperimentResult, experiment, timed


@experiment("fig06")
def run(fast: bool = True) -> ExperimentResult:
    """Profile the NLU workload on the single-processor baseline."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig06",
            title="Relative instruction frequency and execution time "
                  "(uniprocessor NLU profile)",
            paper_claim="PROPAGATE = 17.0% of instructions but 64.5% of "
                        "processing time; data movement and bitwise ops "
                        "dominate the instruction count",
        )
        kb = build_domain_kb(total_nodes=1500 if fast else 5000)
        machine = SerialMachine(kb.network)
        parser = MemoryBasedParser(machine, kb)
        parses = parser.parse_text(sentences())
        profile = profile_from_parse_results(parses)
        result.add_table(
            format_profile_table(profile, title="single-PE NLU profile")
        )
        freq = profile.frequency_share()
        share = profile.time_share()
        result.add()
        result.add(
            f"PROPAGATE: {100 * freq.get('propagate', 0):.1f}% of "
            f"instructions, {100 * share.get('propagate', 0):.1f}% of time "
            f"(paper: 17.0% / 64.5%)"
        )
        result.data = {
            "frequency_share": freq,
            "time_share": share,
            "counts": profile.counts,
            "time_us": profile.time_us,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
