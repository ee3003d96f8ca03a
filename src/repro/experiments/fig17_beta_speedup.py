"""Fig. 17 — speedup under β-parallelism (overlapped PROPAGATEs).

*"As opposed to α-parallelism, increasing the degree of β-parallelism
above 16 had little impact on speedup ...  acceptable speedup rates
can be obtained for marker-propagation programs which have degrees of
parallelism α_ave ≈ 100 and β_ave ≈ 5."*
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.speedup import SpeedupCurve, SweepPoint
from ..baselines.serial import SerialMachine
from ..machine import SnapMachine, snap1_16cluster
from .common import ExperimentResult, experiment, fmt_us, timed
from .workloads import make_beta_workload


@experiment("fig17")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep β on the 72-PE machine; speedup vs the serial baseline."""

    def body() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig17",
            title="Speedup vs degree of beta-parallelism "
                  "(overlapped PROPAGATE statements, 72-PE array)",
            paper_claim="speedup saturates: increasing beta above 16 has "
                        "little impact",
        )
        betas = [1, 2, 4, 8, 16, 24, 32]
        alpha_per_stream = 4 if fast else 8
        path_length = 10
        from dataclasses import replace

        config = replace(snap1_16cluster(), partition_policy="semantic")
        rows: List[Dict] = []
        curve = SpeedupCurve(label="beta sweep")
        result.add(
            f"{'beta':>5}{'serial':>12}{'SNAP-1':>12}{'speedup':>9}"
        )
        for beta in betas:
            workload = make_beta_workload(beta, alpha_per_stream, path_length)
            serial_time = SerialMachine(workload.network).run(
                workload.program
            ).total_time_us
            snap_time = SnapMachine(
                make_beta_workload(
                    beta, alpha_per_stream, path_length
                ).network,
                config,
            ).run(workload.program).total_time_us
            speedup = serial_time / snap_time if snap_time else 0.0
            rows.append(
                {"beta": beta, "serial_us": serial_time,
                 "snap_us": snap_time, "speedup": speedup}
            )
            curve.add(SweepPoint(beta, config.num_clusters, snap_time))
            result.add(
                f"{beta:>5}{fmt_us(serial_time):>12}"
                f"{fmt_us(snap_time):>12}{speedup:>9.2f}"
            )
        # Saturation check: marginal speedup gain above beta=16.
        by_beta = {r["beta"]: r["speedup"] for r in rows}
        gain_to_16 = by_beta[16] / by_beta[1]
        gain_past_16 = by_beta[32] / by_beta[16]
        result.add()
        result.add(
            f"speedup gain 1->16: x{gain_to_16:.2f}; "
            f"16->32: x{gain_past_16:.2f} "
            f"(saturation above 16: {gain_past_16 < gain_to_16})"
        )
        result.data = {"rows": rows}
        return result

    return timed(body)


if __name__ == "__main__":
    print(run(fast=True).render())
