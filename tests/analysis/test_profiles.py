"""Profile aggregation and rendering."""

import pytest

from repro.analysis import (
    CATEGORY_ORDER,
    Profile,
    format_profile_table,
    profile_from_parse_results,
)
from repro.analysis.profiles import category_latency
from repro.baselines import SerialMachine
from repro.isa import assemble


class TestProfile:
    def test_shares_sum_to_one(self):
        profile = Profile()
        profile.add_counts({"propagate": 2, "setclear": 6})
        profile.add_time({"propagate": 80.0, "setclear": 20.0})
        assert sum(profile.frequency_share().values()) == pytest.approx(1.0)
        assert sum(profile.time_share().values()) == pytest.approx(1.0)
        assert profile.frequency_share()["propagate"] == pytest.approx(0.25)
        assert profile.time_share()["propagate"] == pytest.approx(0.8)

    def test_merge(self):
        a = Profile({"search": 1}, {"search": 5.0})
        b = Profile({"search": 2}, {"search": 3.0})
        a.merge(b)
        assert a.counts["search"] == 3
        assert a.time_us["search"] == 8.0

    def test_empty_shares(self):
        assert Profile().frequency_share() == {}
        assert Profile().time_share() == {}

    def test_totals(self):
        profile = Profile({"boolean": 4}, {"boolean": 7.5})
        assert profile.total_instructions == 4
        assert profile.total_time_us == 7.5


class TestExtraction:
    def test_category_latency_serial(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(
            "SEARCH-NODE w:we m1\nPROPAGATE m1 m2 chain(is-a) identity"
        ))
        latency = category_latency([report])
        assert set(latency) == {"search", "propagate"}

    def test_category_latency_machine(self, fig5_kb):
        from repro.machine import MachineConfig, SnapMachine

        machine = SnapMachine(fig5_kb, MachineConfig(2, 2))
        report = machine.run(assemble(
            "SEARCH-NODE w:we m1\nPROPAGATE m1 m2 chain(is-a) identity"
        ))
        latency = category_latency([report])
        assert latency["propagate"] > 0


class TestRendering:
    def test_table_contains_categories_and_total(self):
        profile = Profile(
            {"propagate": 2, "collect": 1},
            {"propagate": 10.0, "collect": 1.0},
        )
        text = format_profile_table(profile, title="demo")
        assert "demo" in text
        assert "propagate" in text
        assert "total" in text

    def test_category_order_starts_with_propagate(self):
        assert CATEGORY_ORDER[0] == "propagate"
