"""Fault injection and recovery: determinism, zero-cost-off, layers."""

import json
from dataclasses import replace

import pytest

from repro.isa import assemble
from repro.machine import (
    FaultConfig,
    FaultConfigError,
    FaultInjector,
    MachineConfig,
    RetryPolicy,
    SnapMachine,
    failed_clusters_for,
)
from repro.network.generator import generate_hierarchy_kb
from repro.network.partition import (
    PartitionError,
    evict_clusters,
    round_robin_partition,
)

PROGRAM = """
SEARCH-NODE thing b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
"""


def _run(faults, num_nodes=120, num_clusters=16):
    config = MachineConfig(
        num_clusters=num_clusters, mus_per_cluster=2, faults=faults
    )
    machine = SnapMachine(
        generate_hierarchy_kb(num_nodes, branching=3), config
    )
    return machine.run(assemble(PROGRAM))


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            base_backoff_us=1.0, backoff_factor=2.0, max_backoff_us=5.0
        )
        assert policy.backoff(0) == 1.0
        assert policy.backoff(1) == 2.0
        assert policy.backoff(2) == 4.0
        assert policy.backoff(3) == 5.0  # capped
        assert policy.backoff(10) == 5.0

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultConfigError):
            RetryPolicy(backoff_factor=0.5)


class TestFaultConfig:
    def test_disabled_injects_nothing(self):
        config = FaultConfig.disabled()
        assert not config.enabled

    def test_any_rate_enables(self):
        assert FaultConfig(transfer_corrupt_prob=0.1).enabled
        assert FaultConfig(failed_clusters=(3,)).enabled
        assert not FaultConfig(seed=42).enabled

    def test_probability_validation(self):
        with pytest.raises(FaultConfigError):
            FaultConfig(link_fail_prob=1.5)

    @pytest.mark.parametrize("name", [
        "failed_cluster_fraction", "mu_loss_prob", "link_fail_prob",
        "transfer_corrupt_prob", "scp_timeout_prob",
    ])
    def test_probability_errors_name_the_field(self, name):
        """Every out-of-range rate names the offending field and value
        so sweep scripts can report what they got wrong."""
        for bad in (-0.1, 1.5):
            with pytest.raises(FaultConfigError) as excinfo:
                FaultConfig(**{name: bad})
            assert name in str(excinfo.value)
            assert str(bad) in str(excinfo.value)

    def test_negative_penalty_named(self):
        with pytest.raises(FaultConfigError, match="scp_timeout_penalty_us"):
            FaultConfig(scp_timeout_penalty_us=-1.0)

    def test_negative_replay_rounds_named(self):
        with pytest.raises(FaultConfigError, match="max_replay_rounds"):
            FaultConfig(max_replay_rounds=-1)

    def test_negative_failed_cluster_ids_named(self):
        with pytest.raises(FaultConfigError, match="failed_clusters"):
            FaultConfig(failed_clusters=(2, -1))

    @pytest.mark.parametrize("name,bad", [
        ("max_retries", -1),
        ("base_backoff_us", -0.5),
        ("max_backoff_us", -2.0),
        ("timeout_budget_us", -1.0),
        ("backoff_factor", 0.5),
    ])
    def test_retry_policy_errors_name_the_field(self, name, bad):
        with pytest.raises(FaultConfigError) as excinfo:
            RetryPolicy(**{name: bad})
        assert name in str(excinfo.value)
        assert str(bad) in str(excinfo.value)


class TestFailedClusterSelection:
    def test_deterministic_per_seed(self):
        config = FaultConfig(seed=7, failed_cluster_fraction=0.25)
        assert failed_clusters_for(config, 16) == failed_clusters_for(
            config, 16
        )

    def test_different_seeds_differ(self):
        picks = {
            failed_clusters_for(
                FaultConfig(seed=s, failed_cluster_fraction=0.25), 16
            )
            for s in range(20)
        }
        assert len(picks) > 1

    def test_explicit_list_wins(self):
        config = FaultConfig(failed_clusters=(2, 5))
        assert failed_clusters_for(config, 16) == frozenset({2, 5})

    def test_at_least_one_survivor(self):
        config = FaultConfig(failed_clusters=tuple(range(8)))
        assert len(failed_clusters_for(config, 8)) < 8

    def test_zero_fraction_fails_nothing(self):
        config = FaultConfig(seed=3, mu_loss_prob=0.5)
        assert failed_clusters_for(config, 16) == frozenset()


class TestFaultInjector:
    def test_surviving_clusters_keep_one_mu(self):
        config = FaultConfig(seed=1, mu_loss_prob=1.0)
        injector = FaultInjector(config, 4, [3, 3, 2, 2])
        assert all(c >= 1 for c in injector.effective_mu_counts)
        assert injector.stats.mus_lost > 0

    def test_dead_links_are_real_links(self):
        from repro.machine import HypercubeTopology

        config = FaultConfig(seed=5, link_fail_prob=0.5)
        injector = FaultInjector(config, 16, [2] * 16)
        topo = HypercubeTopology(16)
        for a, b in injector.dead_links:
            assert a < b
            assert b in topo.neighbors(a)

    def test_pattern_reproducible(self):
        config = FaultConfig(
            seed=9, failed_cluster_fraction=0.25,
            mu_loss_prob=0.3, link_fail_prob=0.2,
        )
        one = FaultInjector(config, 16, [2] * 16)
        two = FaultInjector(config, 16, [2] * 16)
        assert one.failed_clusters == two.failed_clusters
        assert one.effective_mu_counts == two.effective_mu_counts
        assert one.dead_links == two.dead_links

    def test_mu_count_mismatch_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultInjector(FaultConfig(), 4, [2, 2])


class TestEvictClusters:
    def test_excluded_clusters_emptied(self):
        network = generate_hierarchy_kb(60, branching=3)
        partitioning = round_robin_partition(network, 8)
        evicted, moved = evict_clusters(partitioning, {2, 5})
        sizes = evicted.sizes()
        assert sizes[2] == 0 and sizes[5] == 0
        assert moved == partitioning.sizes()[2] + partitioning.sizes()[5]
        assert sum(sizes) == network.num_nodes

    def test_deterministic(self):
        network = generate_hierarchy_kb(60, branching=3)
        partitioning = round_robin_partition(network, 8)
        one, _ = evict_clusters(partitioning, {1})
        two, _ = evict_clusters(partitioning, {1})
        assert [one.cluster_of(n) for n in range(60)] == [
            two.cluster_of(n) for n in range(60)
        ]

    def test_cannot_evict_everything(self):
        network = generate_hierarchy_kb(20, branching=3)
        partitioning = round_robin_partition(network, 4)
        with pytest.raises(PartitionError):
            evict_clusters(partitioning, {0, 1, 2, 3})


class TestZeroCostOff:
    """The fault layer must be provably invisible when off."""

    def test_disabled_config_byte_identical(self):
        baseline = _run(None)
        disabled = _run(FaultConfig.disabled())
        assert json.dumps(
            baseline.to_json(), sort_keys=True
        ) == json.dumps(disabled.to_json(), sort_keys=True)

    def test_disabled_report_has_no_fault_keys(self):
        report = _run(FaultConfig.disabled())
        assert not report.faults_enabled
        assert "faults" not in report.to_json()
        assert "faults_injected" not in report.summary()
        assert all("failed" not in c for c in report.cluster_busy)


class TestSeededReproducibility:
    FAULTS = FaultConfig(
        seed=11, failed_cluster_fraction=0.25, mu_loss_prob=0.2,
        link_fail_prob=0.05, transfer_corrupt_prob=0.05,
        scp_timeout_prob=0.1,
    )

    def test_same_seed_identical_trace(self):
        one = _run(self.FAULTS)
        two = _run(self.FAULTS)
        assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(
            two.to_json(), sort_keys=True
        )
        assert one.fault_stats.as_dict() == two.fault_stats.as_dict()

    def test_different_seed_different_trace(self):
        one = _run(self.FAULTS)
        two = _run(replace(self.FAULTS, seed=12))
        assert one.fault_stats.as_dict() != two.fault_stats.as_dict()


class TestRecoveryLayers:
    def test_scp_timeouts_counted_and_charged(self):
        report = _run(
            FaultConfig(seed=2, scp_timeout_prob=1.0,
                        scp_timeout_penalty_us=25.0)
        )
        assert report.fault_stats.scp_timeouts > 0
        clean = _run(None)
        assert report.total_time_us > clean.total_time_us

    def test_transfer_retries_surface_in_report(self):
        report = _run(FaultConfig(seed=4, transfer_corrupt_prob=0.3))
        stats = report.fault_stats
        assert stats.transfer_retries > 0
        assert stats.retry_time_us > 0
        assert report.to_json()["faults"]["transfer_retries"] == (
            stats.transfer_retries
        )

    def test_retry_exhaustion_triggers_replay(self):
        faults = FaultConfig(
            seed=4, transfer_corrupt_prob=0.4,
            retry=RetryPolicy(max_retries=0),
            max_replay_rounds=3,
        )
        report = _run(faults)
        stats = report.fault_stats
        assert stats.transfer_failures > 0
        assert stats.replays > 0

    def test_replay_disabled_loses_messages(self):
        faults = FaultConfig(
            seed=4, transfer_corrupt_prob=0.4,
            retry=RetryPolicy(max_retries=0),
            checkpoint_recovery=False,
        )
        report = _run(faults)
        assert report.fault_stats.messages_lost > 0

    def test_failed_clusters_no_crash_with_remap(self):
        faults = FaultConfig(seed=6, failed_cluster_fraction=0.25)
        report = _run(faults)
        stats = report.fault_stats
        assert stats.clusters_failed == 4
        assert stats.nodes_remapped > 0
        # Remap keeps every node reachable: full marked set.
        clean = _run(None)
        assert len(report.results()[0]) == len(clean.results()[0])

    def test_failed_clusters_marked_in_cluster_busy(self):
        faults = FaultConfig(seed=6, failed_cluster_fraction=0.25)
        report = _run(faults)
        flagged = [c for c in report.cluster_busy if c.get("failed")]
        assert len(flagged) == 4

    def test_degradation_without_remap(self):
        faults = FaultConfig(
            seed=6, failed_cluster_fraction=0.25, remap_nodes=False,
        )
        report = _run(faults)
        clean = _run(None)
        # Nodes on dead clusters are lost, but the machine completes.
        assert 0 < len(report.results()[0]) < len(clean.results()[0])
        assert report.fault_stats.messages_unreachable > 0


class TestQueryVisibleFailures:
    def test_sums_the_damage_counters(self):
        from repro.machine.faults import FaultStats

        stats = FaultStats(
            messages_lost=2, messages_unreachable=3, transfer_failures=1
        )
        assert stats.query_visible_failures() == 6

    def test_recovered_faults_are_not_query_visible(self):
        """Retried transfers and replayed messages hurt latency, not
        the answer: they must not count as query-visible damage."""
        from repro.machine.faults import FaultStats

        stats = FaultStats(
            transfer_retries=7, replays=2, replayed_messages=40,
            scp_timeouts=3, messages_rerouted=5,
        )
        assert stats.query_visible_failures() == 0

    def test_guaranteed_corruption_is_query_visible(self):
        faults = FaultConfig(
            transfer_corrupt_prob=1.0,
            retry=RetryPolicy(max_retries=0),
            checkpoint_recovery=False,
        )
        report = _run(faults)
        assert report.fault_stats.query_visible_failures() > 0
