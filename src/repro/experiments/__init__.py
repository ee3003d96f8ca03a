"""Regeneration of every table and figure in the paper's evaluation.

Each ``figNN_*`` / ``tableNN_*`` module regenerates one artifact of
§IV and is runnable standalone (``python -m
repro.experiments.fig16_alpha_speedup``) or through the runner:
``python -m repro experiments [IDS...]`` forwards to
:mod:`repro.experiments.runner`, whose ``--help`` lists the flags.
See DESIGN.md for the per-experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from .common import REGISTRY, ExperimentResult, experiment
from .workloads import (
    AlphaWorkload,
    alpha_network,
    alpha_program,
    make_alpha_workload,
    make_beta_workload,
)

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "experiment",
    "AlphaWorkload",
    "alpha_network",
    "alpha_program",
    "make_alpha_workload",
    "make_beta_workload",
]
