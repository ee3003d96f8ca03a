"""Synthetic α/β workloads and the experiment registry."""

import pytest

from repro.experiments import (
    REGISTRY,
    alpha_network,
    alpha_program,
    make_alpha_workload,
    make_beta_workload,
)
from repro.experiments.workloads import SEED_COLOR_BASE


class TestAlphaNetwork:
    def test_node_count(self):
        net = alpha_network(alpha=5, path_length=3, streams=2)
        assert net.num_nodes == 2 * 5 * (3 + 1)

    def test_seed_colors_per_stream(self):
        net = alpha_network(alpha=4, path_length=2, streams=3)
        for stream in range(3):
            seeds = [
                n for n in net.nodes() if n.color == SEED_COLOR_BASE + stream
            ]
            assert len(seeds) == 4

    def test_chains_are_linear(self):
        net = alpha_network(alpha=2, path_length=4)
        for node in net.nodes():
            assert net.fanout(node.node_id) <= 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            alpha_network(0, 3)
        with pytest.raises(ValueError):
            alpha_network(3, 0)


class TestAlphaProgram:
    def test_streams_are_marker_disjoint(self):
        program = alpha_program(streams=4)
        assert max(program.beta_profile()) == 4

    def test_too_many_streams_rejected(self):
        with pytest.raises(ValueError):
            alpha_program(streams=33)

    def test_collect_appended(self):
        program = alpha_program(streams=1, collect=True)
        assert program[-1].opcode == "COLLECT-NODE"


class TestWorkloadExecution:
    def test_alpha_measured_matches_request(self):
        from repro.baselines import SerialMachine

        workload = make_alpha_workload(alpha=7, path_length=3)
        report = SerialMachine(workload.network).run(workload.program)
        propagate = next(
            t for t in report.traces if t.category == "propagate"
        )
        assert propagate.alpha == 7
        assert propagate.max_hops == 3

    def test_beta_workload_shape(self):
        workload = make_beta_workload(beta=3, alpha_per_stream=2,
                                      path_length=2)
        assert workload.streams == 3
        assert max(workload.program.beta_profile()) == 3

    def test_all_chain_nodes_marked(self):
        from repro.baselines import SerialMachine
        from repro.isa import complex_marker

        workload = make_alpha_workload(alpha=3, path_length=4)
        machine = SerialMachine(workload.network)
        machine.run(workload.program)
        marked = machine.state.marker_set_nodes(complex_marker(32))
        assert len(marked) == 3 * 4


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        from repro.experiments.runner import DEFAULT_ORDER

        for experiment_id in DEFAULT_ORDER:
            assert experiment_id in REGISTRY

    def test_registry_entries_runnable(self):
        """Smoke-run the two cheapest experiments end-to-end."""
        result = REGISTRY["fig21"](fast=True)
        assert result.experiment_id == "fig21"
        assert result.lines
        assert result.data["rows"]
        assert "collection" in result.render()

    def test_run_experiments_unknown_id(self):
        from repro.experiments.runner import run_experiments

        with pytest.raises(KeyError):
            run_experiments(["fig99"])
