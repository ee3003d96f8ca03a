"""Fig. 20 — instruction counts vs knowledge-base size.

*"There is some increase in the total number of propagations required
...  This occurs because more irrelevant candidates become activated
which must be removed by propagating cancel markers during the
multiple hypotheses resolution phase.  ...  Most other operations
remained relatively constant with processing dominated by marker
set/clear ..., boolean marker operations ..., and data collection."*
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.nlu import MemoryBasedParser, NEWSWIRE_PASSAGE, build_domain_kb
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, nlu_config, timed


@experiment("fig20")
def run(fast: bool = True) -> ExperimentResult:
    """Count executed instructions per class across KB sizes."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig20",
            title="Number of executed instructions per class vs KB size "
                  "(bulk newswire parsing)",
            paper_claim="propagation count grows with KB size (cancel "
                        "markers for irrelevant candidates); set/clear, "
                        "boolean, and collection counts stay roughly "
                        "constant; set/clear and boolean dominate counts",
        )
        sizes = [1000, 2000, 4000] if fast else [1000, 2000, 4000, 8000, 12000]
        passage = NEWSWIRE_PASSAGE if not fast else NEWSWIRE_PASSAGE[:5]
        rows: List[Dict] = []
        categories = ["setclear", "boolean", "search", "collect",
                      "marker-maint"]
        result.add(
            f"{'nodes':>7}{'propagations':>13}"
            + "".join(f"{c[:10]:>12}" for c in categories)
            + f"{'cancelled':>11}"
        )
        for size in sizes:
            kb = build_domain_kb(total_nodes=size)
            machine = SnapMachine(kb.network, nlu_config())
            parser = MemoryBasedParser(machine, kb)
            parses = parser.parse_text(list(passage))
            counts: Dict[str, int] = {}
            propagations = 0
            cancelled = 0
            for parse in parses:
                for category, n in parse.category_counts.items():
                    counts[category] = counts.get(category, 0) + n
                # "Number of propagations" = individual marker
                # propagation events, the unit that grows as cancel
                # markers sweep losing hypotheses.
                propagations += parse.propagation_events
                # Losing hypotheses = activated candidates beyond the
                # winner.
                cancelled += max(0, len(parse.candidates) - 1)
            rows.append(
                {"nodes": size, "counts": counts, "cancelled": cancelled,
                 "propagations": propagations}
            )
            result.add(
                f"{size:>7}{propagations:>13}"
                + "".join(f"{counts.get(c, 0):>12}" for c in categories)
                + f"{cancelled:>11}"
            )
        result.add()
        prop = [r["propagations"] for r in rows]
        setclear = [r["counts"].get("setclear", 0) for r in rows]
        boolean = [r["counts"].get("boolean", 0) for r in rows]
        result.add(
            f"propagations grow with KB: {prop[0]} -> {prop[-1]} "
            f"(x{prop[-1] / max(prop[0], 1):.2f}; driven by "
            f"{rows[0]['cancelled']} -> {rows[-1]['cancelled']} "
            f"cancelled candidates)"
        )
        result.add(
            f"set/clear constant: {setclear[0]} -> {setclear[-1]}; "
            f"boolean constant: {boolean[0]} -> {boolean[-1]}; "
            f"set/clear + boolean dominate instruction counts: "
            f"{setclear[-1] + boolean[-1]} of "
            f"{sum(rows[-1]['counts'].values())}"
        )
        result.data = {"rows": rows}
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
