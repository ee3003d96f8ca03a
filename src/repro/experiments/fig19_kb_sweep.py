"""Fig. 19 — per-class execution time vs knowledge-base size.

*"Fig. 19 shows the effect of increasing knowledge base size.  It
shows that in general propagation dominates.  Furthermore, the
relative time spent on nonpropagation instruction decreases slightly
as the knowledge base grows.  Collection is the next most significant
operation."*
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.profiles import CATEGORY_ORDER, category_latency
from ..apps.nlu import MemoryBasedParser, build_domain_kb, sentences
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, nlu_config, timed


@experiment("fig19")
def run(fast: bool = True) -> ExperimentResult:
    """Parse the same sentence at growing KB sizes; split by class."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig19",
            title="Execution time per instruction class vs knowledge "
                  "base size (16-cluster NLU parse)",
            paper_claim="propagation dominates at every size; relative "
                        "non-propagation time shrinks as the KB grows; "
                        "collection is the next most significant class",
        )
        sizes = [2000, 4000, 8000] if fast else [1000, 2000, 4000, 8000, 12000]
        sentence = sentences()[1]
        categories = list(CATEGORY_ORDER)
        rows: List[Dict] = []
        result.add(
            f"{'nodes':>7}" + "".join(f"{c[:10]:>12}" for c in categories)
            + f"{'prop %':>8}   (per-class latency, ms)"
        )
        for size in sizes:
            kb = build_domain_kb(total_nodes=size)
            machine = SnapMachine(kb.network, nlu_config())
            parser = MemoryBasedParser(machine, kb, keep_trace=True)
            parser.parse(sentence)
            latency = category_latency(
                report for _program, report in parser.trace_log
            )
            total = sum(latency.values())
            prop_share = latency.get("propagate", 0.0) / total if total else 0
            rows.append(
                {"nodes": size, "latency_us": latency,
                 "propagate_share": prop_share}
            )
            result.add(
                f"{size:>7}"
                + "".join(
                    f"{latency.get(c, 0.0) / 1e3:>12.3f}" for c in categories
                )
                + f"{100 * prop_share:>7.1f}%"
            )
        result.add()
        shares = [r["propagate_share"] for r in rows]
        # Dominance at paper-representative sizes (the published KBs
        # were 5K-12K nodes); at toy sizes fixed set/clear costs win.
        dominant = all(
            r["latency_us"].get("propagate", 0.0)
            == max(r["latency_us"].values())
            for r in rows if r["nodes"] >= 4000
        )
        result.add(
            f"propagation dominant at paper-scale sizes (>=4K nodes): "
            f"{dominant}; propagate share {100 * shares[0]:.1f}% -> "
            f"{100 * shares[-1]:.1f}% as KB grows"
        )
        ranked = sorted(
            rows[-1]["latency_us"].items(), key=lambda kv: -kv[1]
        )
        result.add(
            "class ranking at largest KB: "
            + " > ".join(name for name, _v in ranked[:3])
        )
        result.data = {"rows": rows}
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
