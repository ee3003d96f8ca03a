"""MUC-style template extraction from parses."""

import pytest

from repro.apps.nlu import (
    MemoryBasedParser,
    build_domain_kb,
    extract_template,
)
from repro.machine import MachineConfig, SnapMachine


@pytest.fixture(scope="module")
def kb():
    return build_domain_kb(total_nodes=1500)


@pytest.fixture(scope="module")
def parser(kb):
    machine = SnapMachine(
        kb.network, MachineConfig(num_clusters=8, mus_per_cluster=2)
    )
    return MemoryBasedParser(machine, kb)


class TestRoleFilling:
    def test_attack_roles(self, parser, kb):
        result = parser.parse(
            "terrorists attacked the mayor in bogota yesterday"
        )
        template = extract_template(result, kb)
        assert template.event_type == "attack-event"
        assert template.roles["attacker"] == ["terrorists"]
        assert template.roles["attack"] == ["attacked"]
        assert template.roles["victim"] == ["mayor"]

    def test_same_constraint_roles_disambiguated_by_order(self, parser, kb):
        """kidnapper and victim are both human: word order decides."""
        result = parser.parse("guerrillas kidnapped the ambassador")
        template = extract_template(result, kb)
        assert template.roles["kidnapper"] == ["guerrillas"]
        assert template.roles["victim"] == ["ambassador"]

    def test_modifiers_filled(self, parser, kb):
        result = parser.parse(
            "terrorists attacked the mayor in bogota yesterday"
        )
        template = extract_template(result, kb)
        assert template.modifiers.get("time-case") == ["yesterday"]
        assert template.modifiers.get("location-case") == ["bogota"]

    def test_no_parse_no_template(self, parser, kb):
        result = parser.parse("in of the")
        assert extract_template(result, kb) is None

    def test_confidence_cost_carried(self, parser, kb):
        result = parser.parse("terrorists attacked the mayor")
        template = extract_template(result, kb)
        assert template.confidence_cost == result.cost

    def test_render_contains_roles(self, parser, kb):
        result = parser.parse("terrorists attacked the mayor")
        text = extract_template(result, kb).render()
        assert "attack-event" in text
        assert "attacker" in text
        assert "terrorists" in text


class TestBulkExtraction:
    def test_failed_parse_yields_no_template(self, parser, kb):
        good, failed = parser.parse_text([
            "terrorists attacked the mayor",
            "in of the",
        ])
        assert extract_template(good, kb).event_type == "attack-event"
        assert extract_template(failed, kb) is None

    def test_binding_details_populated(self, parser):
        result = parser.parse("terrorists attacked the mayor")
        assert result.binding_details
        names = {name for name, _c, _o in result.binding_details}
        assert any(n.startswith("attack-event.") for n in names)
