"""Tables III/IV — MUC-4 sentence parse times.

*"Results for parsing time for the sentences in Table III are shown in
Table IV.  Real-time performance is obtained and sentences can be
parsed more quickly than a human can read them.  Most sentences can be
processed with around 400–900 SNAP instructions ... Parsing times for
the memory based parser are shown for two knowledge base sizes (5K
nodes and 9K nodes).  The parsing time increases gradually as more
knowledge is added.  The overall execution time is roughly
proportional to the sentence length in words."*
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.nlu import (
    MUC4_SENTENCES,
    MemoryBasedParser,
    build_domain_kb,
)
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, fmt_us, nlu_config, timed


@experiment("table04")
def run(fast: bool = True) -> ExperimentResult:
    """Parse S1–S4 at two KB sizes on the 72-PE machine."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="table04",
            title="Execution times for MUC-4 sentences "
                  "(P.P. + M.B. at two KB sizes, 16-cluster/72-PE array)",
            paper_claim="real-time parsing; M.B. time grows gradually "
                        "5K->9K nodes; total roughly proportional to "
                        "sentence length; 400-900 SNAP instructions "
                        "per sentence",
        )
        kb_sizes = (2000, 3500) if fast else (5000, 9000)
        rows: List[Dict] = []
        per_size: Dict[int, List] = {}
        for size in kb_sizes:
            kb = build_domain_kb(total_nodes=size)
            machine = SnapMachine(kb.network, nlu_config())
            parser = MemoryBasedParser(machine, kb)
            per_size[size] = [
                parser.parse(text) for _sid, text in MUC4_SENTENCES
            ]

        small, large = kb_sizes
        result.add(
            f"{'input':<6}{'words':>6}{'P.P. time':>12}"
            f"{f'M.B. {small//1000}K':>12}{f'M.B. {large//1000}K':>12}"
            f"{'total':>12}{'instr':>7}{'winner':>18}"
        )
        for i, (sid, _text) in enumerate(MUC4_SENTENCES):
            p_small = per_size[small][i]
            p_large = per_size[large][i]
            total = p_large.pp_time_us + p_large.mb_time_us
            result.add(
                f"{sid:<6}{p_large.num_words:>6}"
                f"{fmt_us(p_large.pp_time_us):>12}"
                f"{fmt_us(p_small.mb_time_us):>12}"
                f"{fmt_us(p_large.mb_time_us):>12}"
                f"{fmt_us(total):>12}"
                f"{p_large.instruction_count:>7}"
                f"{str(p_large.winner):>18}"
            )
            rows.append(
                {
                    "id": sid,
                    "words": p_large.num_words,
                    "pp_us": p_large.pp_time_us,
                    "mb_small_us": p_small.mb_time_us,
                    "mb_large_us": p_large.mb_time_us,
                    "instructions": p_large.instruction_count,
                    "winner": p_large.winner,
                }
            )
        # Shape checks the paper states.
        growth = [
            r["mb_large_us"] / r["mb_small_us"]
            for r in rows if r["mb_small_us"] > 0
        ]
        words = [r["words"] for r in rows]
        totals = [r["pp_us"] + r["mb_large_us"] for r in rows]
        result.add()
        result.add(
            f"M.B. growth {small}->{large} nodes: "
            f"x{min(growth):.2f}..x{max(growth):.2f} (gradual increase)"
        )
        result.add(
            f"time vs length: {words[0]}w={fmt_us(totals[0])} ... "
            f"{words[-1]}w={fmt_us(totals[-1])} "
            f"(roughly proportional to words)"
        )
        result.data = {"rows": rows, "kb_sizes": kb_sizes}
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
