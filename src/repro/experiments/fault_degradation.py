"""Extension study — marker propagation under partial hardware failure.

The published SNAP-1 evaluation assumed a perfectly healthy 144-PE
array.  This experiment measures what the paper could not: how
marker-propagation *accuracy* (fraction of the fault-free marked set
still reached) and runtime degrade as clusters go offline and the
memory/ICN fault rate rises — and how much of the loss the recovery
stack (per-transfer retry, checkpoint replay, allocator remap) wins
back.

Two arms per sweep cell, averaged over fault seeds:

* **detect-only** — faults are detected but not recovered (no node
  remap, no checkpoint replay, a single retry): the raw degradation
  curve.  Accuracy falls smoothly and monotonically as the
  failed-cluster fraction rises — graceful degradation, not a crash.
* **recovered** — the full recovery stack: nodes evicted off failed
  clusters, lost messages replayed, corrupted transfers retried under
  the backoff budget.

Run with ``python -m repro experiments faultdeg``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Tuple

from ..isa import assemble
from ..machine import FaultConfig, MachineConfig, RetryPolicy, SnapMachine
from ..network.generator import generate_hierarchy_kb
from .common import ExperimentResult, experiment, timed

#: Failed-cluster fractions swept (0 → 25% of the machine).
FRACTIONS = (0.0, 0.0625, 0.125, 0.1875, 0.25)


def _machine_config(faults) -> MachineConfig:
    return MachineConfig(num_clusters=16, mus_per_cluster=2, faults=faults)


def _run_once(
    num_nodes: int, faults
) -> Tuple[float, FrozenSet]:
    """One full machine build + program run; (report, marked set).

    The program is the ``overload`` experiment's ``root`` template:
    mark every concept below the hierarchy root.  It is imported here
    rather than at module load so ``overload`` is not registered ahead
    of this experiment (the registry's insertion order is the paper
    order).
    """
    from .overload import TEMPLATES

    machine = SnapMachine(
        generate_hierarchy_kb(num_nodes, branching=3),
        _machine_config(faults),
    )
    report = machine.run(assemble(dict(TEMPLATES)["root"]))
    marked = frozenset(
        tuple(item) if isinstance(item, list) else item
        for item in report.results()[0]
    )
    return report, marked


@experiment("faultdeg")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep failed-cluster fraction x fault rate; accuracy/slowdown."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="faultdeg",
            title="EXTENSION: graceful degradation under injected faults",
            paper_claim="(not a paper figure) the prototype's published "
                        "numbers assume a fault-free array; this sweeps "
                        "failed clusters x fault rate",
        )
        num_nodes = 300 if fast else 1200
        seeds = range(3 if fast else 8)
        rates = (0.02, 0.05) if fast else (0.01, 0.02, 0.05)

        ref_report, ref_marked = _run_once(num_nodes, None)
        ref_time = ref_report.total_time_us

        result.add(
            f"{'fault rate':>11}{'failed':>9}{'acc raw':>9}"
            f"{'acc rec':>9}{'slowdown':>10}{'retries':>9}"
            f"{'replays':>9}{'rerouted':>10}"
        )
        rows: List[Dict] = []
        for rate in rates:
            for fraction in FRACTIONS:
                raw_acc = rec_acc = slow = 0.0
                retries = replays = rerouted = 0
                retry_us = 0.0
                for seed in seeds:
                    # A deliberately tight retry budget (one retry per
                    # transfer) so the upper recovery layer — checkpoint
                    # replay — visibly engages in the counters.
                    base = FaultConfig(
                        seed=seed,
                        failed_cluster_fraction=fraction,
                        link_fail_prob=rate / 2,
                        transfer_corrupt_prob=rate,
                        scp_timeout_prob=rate / 2,
                        mu_loss_prob=rate,
                        retry=RetryPolicy(max_retries=1),
                    )
                    detect_only = replace(
                        base,
                        remap_nodes=False,
                        checkpoint_recovery=False,
                    )
                    raw_rep, raw_marked = _run_once(num_nodes, detect_only)
                    rec_rep, rec_marked = _run_once(num_nodes, base)
                    raw_acc += len(raw_marked & ref_marked) / len(ref_marked)
                    rec_acc += len(rec_marked & ref_marked) / len(ref_marked)
                    slow += rec_rep.total_time_us / ref_time
                    stats = rec_rep.fault_stats
                    retries += stats.transfer_retries
                    replays += stats.replays
                    rerouted += stats.messages_rerouted
                    retry_us += stats.retry_time_us
                n = len(seeds)
                row = {
                    "fault_rate": rate,
                    "failed_fraction": fraction,
                    "accuracy_detect_only": raw_acc / n,
                    "accuracy_recovered": rec_acc / n,
                    "slowdown_recovered": slow / n,
                    "transfer_retries": retries,
                    "retry_time_us": retry_us,
                    "replays": replays,
                    "messages_rerouted": rerouted,
                }
                rows.append(row)
                result.add(
                    f"{rate:>11.2f}{100 * fraction:>8.1f}%"
                    f"{100 * row['accuracy_detect_only']:>8.1f}%"
                    f"{100 * row['accuracy_recovered']:>8.1f}%"
                    f"{row['slowdown_recovered']:>10.2f}{retries:>9}"
                    f"{replays:>9}{rerouted:>10}"
                )
        result.add()
        worst = rows[len(FRACTIONS) * len(rates) - 1]
        result.add(
            f"detect-only accuracy declines smoothly to "
            f"{100 * worst['accuracy_detect_only']:.0f}% at 25% failed "
            f"clusters (no crash); the recovery stack holds "
            f"{100 * worst['accuracy_recovered']:.0f}%"
        )
        result.data = {
            "reference_marked": len(ref_marked),
            "reference_time_us": ref_time,
            "rows": rows,
        }
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
