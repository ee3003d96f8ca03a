"""Fig. 8 — time distribution of marker activation traffic.

*"Parsing generates bursts of marker activation.  ...  While on
average 11.49 messages are transmitted per synchronization point,
bursts of over 30 messages are typical."*
"""

from __future__ import annotations

from ..analysis.traffic import format_traffic_series, summarize_traffic
from ..apps.nlu import MemoryBasedParser, build_domain_kb, sentences
from ..machine import SnapMachine
from .common import ExperimentResult, experiment, nlu_config, timed


@experiment("fig08")
def run(fast: bool = True) -> ExperimentResult:
    """Record messages per barrier-synchronization point during a parse."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig08",
            title="Marker activation messages at each barrier "
                  "synchronization point",
            paper_claim="bursty traffic; mean 11.49 messages/sync, "
                        "bursts of over 30 typical",
        )
        kb = build_domain_kb(total_nodes=2000 if fast else 5000)
        machine = SnapMachine(kb.network, nlu_config())
        parser = MemoryBasedParser(machine, kb, keep_trace=True)
        parser.parse(sentences()[1])

        series = []
        for _program, report in parser.trace_log:
            series.extend(report.sync_stats.messages_per_sync())
        summary = summarize_traffic(series)
        result.add_table(
            format_traffic_series(
                series, title="messages per sync point (one sentence parse)"
            )
        )
        result.add()
        result.add(
            f"mean={summary.mean:.2f} msgs/sync (paper: 11.49), "
            f"peak={summary.peak}, bursts>30={summary.bursts_over_30}, "
            f"bursty={summary.bursty}"
        )
        result.data = {
            "series": series,
            "mean": summary.mean,
            "peak": summary.peak,
            "bursts_over_30": summary.bursts_over_30,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
