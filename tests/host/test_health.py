"""Health layer: phi-accrual detector, quarantine lifecycle, audits."""

import pytest

from repro.host import (
    HealthError,
    HealthState,
    HostConfig,
    HostConfigError,
    PhiAccrualDetector,
    Query,
    ReplicaFaultEvent,
    ReplicaHealth,
    ServingHost,
)
from repro.isa import assemble
from repro.machine.faults import FaultConfig
from repro.network.generator import generate_hierarchy_kb

PROGRAM = assemble("""
SEARCH-NODE thing b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
""")


@pytest.fixture(scope="module")
def network():
    return generate_hierarchy_kb(120, branching=3)


class TestPhiAccrualDetector:
    def test_parameter_validation(self):
        with pytest.raises(HealthError, match="window"):
            PhiAccrualDetector(window=1)
        with pytest.raises(HealthError, match="min_samples"):
            PhiAccrualDetector(window=4, min_samples=5)
        with pytest.raises(HealthError, match="sigma_floor"):
            PhiAccrualDetector(sigma_floor=0.0)

    def test_silent_below_min_samples(self):
        det = PhiAccrualDetector(window=8, min_samples=4)
        for _ in range(3):
            det.observe(10.0)
        assert det.phi() == 0.0

    def test_healthy_ratios_score_zero(self):
        det = PhiAccrualDetector(window=8, min_samples=4)
        for _ in range(8):
            det.observe(1.0)
        assert det.phi() == 0.0

    def test_steady_degradation_accrues(self):
        det = PhiAccrualDetector(window=8, min_samples=4)
        for _ in range(8):
            det.observe(1.5)
        # sigma floors at 0.08, so a perfectly-steady 1.5x replica
        # still accrues a decisive score.
        assert det.phi() > 8.0

    def test_phi_monotone_in_mean(self):
        low = PhiAccrualDetector(window=8, min_samples=4)
        high = PhiAccrualDetector(window=8, min_samples=4)
        for _ in range(8):
            low.observe(1.2)
            high.observe(2.0)
        assert 0.0 < low.phi() < high.phi()

    def test_window_slides(self):
        det = PhiAccrualDetector(window=4, min_samples=2)
        for _ in range(4):
            det.observe(3.0)
        assert det.phi() > 0.0
        for _ in range(4):
            det.observe(1.0)
        assert det.samples == 4
        assert det.mean() == 1.0
        assert det.phi() == 0.0

    def test_reset_clears(self):
        det = PhiAccrualDetector(window=4, min_samples=2)
        for _ in range(4):
            det.observe(3.0)
        det.reset()
        assert det.samples == 0
        assert det.phi() == 0.0


def fast_health(**overrides):
    defaults = dict(
        window=4, min_samples=3, sigma_floor=0.08,
        phi_quarantine=3.0, probe_after_us=100.0,
        probe_successes=2, readmit_ratio=1.3,
    )
    defaults.update(overrides)
    return ReplicaHealth(**defaults)


def quarantined(health, now=0.0, ratio=3.0):
    while health.state is HealthState.ACTIVE:
        health.record_attempt(now, ratio, 0)
        now += 10.0
    return now


class TestReplicaHealthLifecycle:
    def test_parameter_validation(self):
        with pytest.raises(HealthError, match="damage_weight"):
            ReplicaHealth(damage_weight=-1.0)
        with pytest.raises(HealthError, match="phi_quarantine"):
            ReplicaHealth(phi_quarantine=0.0)
        with pytest.raises(HealthError, match="probe_after_us"):
            ReplicaHealth(probe_after_us=-1.0)
        with pytest.raises(HealthError, match="probe_successes"):
            ReplicaHealth(probe_successes=0)
        with pytest.raises(HealthError, match="readmit_ratio"):
            ReplicaHealth(readmit_ratio=0.0)

    def test_slow_ratios_quarantine(self):
        health = fast_health()
        now = quarantined(health)
        assert health.state is HealthState.QUARANTINED
        assert health.quarantines == 1
        assert health.transitions[-1].reason == "phi"
        assert health.transitions[-1].phi >= 3.0
        assert not health.allow(now)

    def test_hold_off_then_single_probe(self):
        health = fast_health()
        now = quarantined(health)
        assert not health.allow(now + 50.0)  # hold-off not expired
        assert health.allow(now + 150.0)
        assert health.state is HealthState.PROBING
        health.acquire(now + 150.0)
        assert health.probes == 1
        # One probe at a time: the slot is taken.
        assert not health.allow(now + 160.0)
        health.release()
        assert health.allow(now + 170.0)

    def test_probe_successes_readmit_and_reset_detector(self):
        health = fast_health()
        now = quarantined(health) + 150.0
        for _ in range(2):
            assert health.allow(now)
            health.acquire(now)
            health.record_attempt(now, 1.0, 0)
            now += 10.0
        assert health.state is HealthState.ACTIVE
        assert health.readmissions == 1
        assert health.transitions[-1].reason == "readmitted"
        assert health.detector.samples == 0

    def test_failed_probe_requarantines(self):
        health = fast_health()
        now = quarantined(health) + 150.0
        assert health.allow(now)
        health.acquire(now)
        health.record_attempt(now, 2.0, 0)  # still above readmit_ratio
        assert health.state is HealthState.QUARANTINED
        assert health.quarantines == 2
        assert health.transitions[-1].reason == "probe-failed"

    def test_damaged_probe_fails_even_if_fast(self):
        health = fast_health()
        now = quarantined(health) + 150.0
        assert health.allow(now)
        health.acquire(now)
        health.record_attempt(now, 1.0, damage=2)
        assert health.state is HealthState.QUARANTINED

    def test_stale_verdict_during_quarantine_ignored(self):
        health = fast_health()
        quarantined(health)
        health.record_attempt(1e6, 1.0, 0)
        assert health.state is HealthState.QUARANTINED
        assert health.quarantines == 1

    def test_damage_weight_feeds_score(self):
        health = fast_health(damage_weight=5.0)
        # Fast but damaged attempts still accrue suspicion.
        for _ in range(4):
            health.record_attempt(0.0, 1.0, damage=1)
        assert health.state is HealthState.QUARANTINED

    def test_audit_failure_quarantines_immediately(self):
        health = fast_health()
        health.record_attempt(0.0, 1.0, 0)
        health.record_audit_failure(5.0)
        assert health.state is HealthState.QUARANTINED
        assert health.audit_failures == 1
        assert health.transitions[-1].reason == "audit"
        # A second mismatch while already quarantined only counts.
        health.record_audit_failure(6.0)
        assert health.audit_failures == 2
        assert health.quarantines == 1

    def test_repeated_probe_failures_stay_quarantined(self):
        # A replica that never recovers must never be readmitted, no
        # matter how many probe cycles it burns.
        health = fast_health()
        now = quarantined(health)
        for cycle in range(5):
            now += 150.0  # hold-off expires, a probe slot opens
            assert health.allow(now)
            health.acquire(now)
            health.record_attempt(now, 3.0, 0)  # probe still slow
            assert health.state is HealthState.QUARANTINED
            assert health.quarantines == cycle + 2
        assert health.readmissions == 0
        assert not health.allow(now + 1.0)

    def test_disabled_is_inert(self):
        health = ReplicaHealth(enabled=False)
        for _ in range(20):
            health.record_attempt(0.0, 10.0, damage=5)
        health.record_audit_failure(0.0)
        assert health.state is HealthState.ACTIVE
        assert health.allow(1e9)
        assert health.quarantines == 0
        assert health.transitions == []
        assert health.audit_failures == 1  # counted, not acted on


GRAY = FaultConfig(
    seed=5, mu_slowdown_factor=3.0, marker_drop_prob=0.2, remap_nodes=False
)


def gray_config(**overrides):
    defaults = dict(
        num_replicas=2,
        clusters_per_replica=4,
        mus_per_cluster=2,
        queue_capacity=None,
        replica_timeline=(ReplicaFaultEvent(0.0, 1, GRAY),),
        health_enabled=True,
        health_window=4,
        health_min_samples=3,
        health_phi_quarantine=3.0,
        health_probe_after_us=500.0,
        health_probe_successes=1,
        health_readmit_ratio=1.3,
        audit_interval=2,
    )
    defaults.update(overrides)
    return HostConfig(**defaults)


def make_queries(count, gap_us=50.0):
    return [
        Query(query_id=i, program=PROGRAM, arrival_us=i * gap_us,
              template="inherit")
        for i in range(count)
    ]


class TestHostConfigHealthValidation:
    def test_timeline_replica_out_of_range(self):
        with pytest.raises(HostConfigError, match="replica_timeline"):
            HostConfig(
                num_replicas=2,
                replica_timeline=(ReplicaFaultEvent(0.0, 5, GRAY),),
            )

    def test_event_validation(self):
        with pytest.raises(HostConfigError):
            ReplicaFaultEvent(-1.0, 0, GRAY)
        with pytest.raises(HostConfigError):
            ReplicaFaultEvent(0.0, -1, GRAY)

    def test_health_knobs_validated(self):
        with pytest.raises(HostConfigError, match="health_window"):
            HostConfig(health_window=1)
        with pytest.raises(HostConfigError, match="health_phi_quarantine"):
            HostConfig(health_phi_quarantine=0.0)
        with pytest.raises(HostConfigError, match="audit_interval"):
            HostConfig(audit_interval=0)


class TestServingHostIntegration:
    def test_gray_replica_is_quarantined_and_audited(self, network):
        host = ServingHost(network, gray_config())
        report = host.serve(make_queries(30))
        assert report.accounted()
        gray, healthy = report.replicas[1], report.replicas[0]
        assert gray.health_state is not None
        assert gray.health_quarantines >= 1
        assert healthy.health_quarantines == 0
        # Shadow re-execution caught at least one silently-truncated
        # answer that the breaker never saw.
        assert report.audit_checks > 0
        assert report.audit_mismatches >= 1

    def test_deterministic(self, network):
        a = ServingHost(network, gray_config()).serve(make_queries(30))
        b = ServingHost(network, gray_config()).serve(make_queries(30))
        assert a.summary() == b.summary()
        assert [r.health_quarantines for r in a.replicas] == (
            [r.health_quarantines for r in b.replicas]
        )

    def test_health_off_leaves_report_clean(self, network):
        config = gray_config(
            health_enabled=False, audit_interval=None
        )
        report = ServingHost(network, config).serve(make_queries(10))
        assert report.accounted()
        for summary in report.replicas:
            assert summary.health_state is None
            assert "health_state" not in summary.as_dict()
        assert report.audit_checks == 0
        assert "audit_checks" not in report.as_dict()

    def test_audit_disabled_never_shadow_executes(self, network):
        # Health on, audit off: quarantine still works but no shadow
        # re-execution ever runs (no audit checks, no audit reasons).
        host = ServingHost(network, gray_config(audit_interval=None))
        report = host.serve(make_queries(30))
        assert report.audit_checks == 0
        assert report.audit_mismatches == 0
        for health in host._health:
            assert all(
                t.reason != "audit" for t in health.transitions
            )


class TestHealthTransitionRecords:
    """The shared telemetry view of a health trail."""

    def test_records_mirror_transitions(self):
        from repro.host import health_transition_records

        health = fast_health()
        now = quarantined(health)
        records = health_transition_records(health, replica_id=7)
        assert len(records) == len(health.transitions)
        ts, fields = records[-1]
        assert ts == health.transitions[-1].time_us
        assert fields["replica"] == 7
        assert fields["to_state"] == "quarantined"
        assert fields["reason"] == "phi"
        assert fields["phi"] == round(health.transitions[-1].phi, 4)
        assert now >= 0.0

    def test_untouched_health_yields_no_records(self):
        from repro.host import health_transition_records

        assert health_transition_records(fast_health(), 0) == []
