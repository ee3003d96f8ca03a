"""Alert lifecycle tests: fire, ack, hysteresis resolve, mute, re-fire."""

import pytest

from repro.obs.live.alerts import Alert, AlertManager, AlertState
from repro.obs.live.slo import RuleEvaluation


def _stream(rule, flags, start_index=0, severity="page"):
    """Evaluations for one rule, one per window, from breach flags."""
    return [
        RuleEvaluation(
            window_index=start_index + i,
            at_us=(start_index + i + 1) * 10.0,
            rule=rule,
            severity=severity,
            breached=flag,
            value=2.0 if flag else 0.0,
        )
        for i, flag in enumerate(flags)
    ]


class TestLifecycle:
    def test_fire_ack_resolve(self):
        manager = AlertManager(ack_after_us=3.0, clear_windows=2)
        alerts = manager.process(
            _stream("page", [False, True, True, False, False])
        )
        (alert,) = alerts
        assert alert.fired_at_us == 20.0  # end of the breach window
        assert alert.ack_at_us == 23.0
        assert alert.resolved_at_us == 50.0  # 2nd consecutive clear
        assert alert.state is AlertState.RESOLVED
        assert alert.duration_us() == 30.0
        assert alert.breach_count == 2

    def test_hysteresis_single_clear_does_not_resolve(self):
        manager = AlertManager(clear_windows=2)
        alerts = manager.process(
            _stream("page", [True, False, True, False])
        )
        # One incident throughout: the lone clear window never closed it.
        (alert,) = alerts
        assert alert.resolved_at_us is None

    def test_refire_is_a_new_incident(self):
        manager = AlertManager(clear_windows=1)
        alerts = manager.process(
            _stream("page", [True, False, True, False])
        )
        assert len(alerts) == 2
        assert [a.fired_at_us for a in alerts] == [10.0, 30.0]
        assert all(a.resolved_at_us is not None for a in alerts)

    def test_peak_value_tracks_worst_breach(self):
        evaluations = _stream("page", [True, True])
        evaluations[1] = RuleEvaluation(
            window_index=1, at_us=20.0, rule="page", severity="page",
            breached=True, value=9.5,
        )
        (alert,) = AlertManager().process(evaluations)
        assert alert.peak_value == 9.5

    def test_open_alert_has_no_duration(self):
        (alert,) = AlertManager().process(_stream("page", [True]))
        assert alert.duration_us() is None
        assert alert.as_dict()["resolved_at_us"] is None


class TestMuting:
    def test_muted_rule_never_opens(self):
        manager = AlertManager(muted=("noisy",))
        alerts = manager.process(
            _stream("noisy", [True, True]) + _stream("live", [True])
        )
        assert [a.rule for a in alerts] == ["live"]

    def test_history_sorted_by_fire_time_then_rule(self):
        manager = AlertManager()
        evaluations = (
            _stream("b-rule", [False, True]) + _stream("a-rule", [True])
        )
        alerts = manager.process(evaluations)
        assert [(a.fired_at_us, a.rule) for a in alerts] == [
            (10.0, "a-rule"), (20.0, "b-rule"),
        ]


class TestValidation:
    def test_negative_ack_raises(self):
        with pytest.raises(ValueError):
            AlertManager(ack_after_us=-1.0)

    def test_zero_clear_windows_raises(self):
        with pytest.raises(ValueError):
            AlertManager(clear_windows=0)
