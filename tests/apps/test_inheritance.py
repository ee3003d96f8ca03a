"""Property inheritance and classification applications."""

import pytest

from repro.apps import (
    classification_program,
    classify,
    inheritance_program,
    install_property,
    property_lookup_program,
)
from repro.apps.classification import ClassificationError
from repro.baselines import SerialMachine
from repro.machine import MachineConfig, SnapMachine
from repro.network import HIERARCHY_ROOT, generate_hierarchy_kb


class TestInheritance:
    def test_all_concepts_inherit(self):
        net = generate_hierarchy_kb(100)
        machine = SnapMachine(
            net, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        report = machine.run(inheritance_program(num_properties=1))
        inherited = report.results()[-1]
        # Every concept except the root receives the marker.
        assert len(inherited) == 99

    def test_one_collect_per_property(self):
        net = generate_hierarchy_kb(50)
        machine = SerialMachine(net)
        report = machine.run(inheritance_program(num_properties=3))
        assert len(report.results()) == 3

    def test_property_lookup_positive(self):
        net = generate_hierarchy_kb(40, properties_at_root=2)
        machine = SerialMachine(net)
        # Any concept inherits the root's properties via is-a.
        report = machine.run(property_lookup_program("c7", "attr0"))
        assert report.results()[-1], "attr0 must be inherited"

    def test_property_lookup_negative(self):
        net = generate_hierarchy_kb(40, properties_at_root=1)
        net.ensure_node("p:unrelated")
        machine = SerialMachine(net)
        report = machine.run(property_lookup_program("c7", "unrelated"))
        assert report.results()[-1] == []

    def test_bigger_hierarchy_takes_longer(self):
        small = SerialMachine(generate_hierarchy_kb(100)).run(
            inheritance_program()
        )
        large = SerialMachine(generate_hierarchy_kb(800)).run(
            inheritance_program()
        )
        assert large.total_time_us > small.total_time_us


class TestClassification:
    @pytest.fixture
    def property_kb(self):
        net = generate_hierarchy_kb(60, properties_at_root=0)
        # c1..c4 are the root's children; attach distinct properties.
        install_property(net, "c1", "red")
        install_property(net, "c2", "red")
        install_property(net, "c1", "fast")
        return net

    def test_single_property_query(self, property_kb):
        machine = SerialMachine(property_kb)
        result = classify(machine, ["red"])
        # Everything under c1 or c2 (plus themselves).
        assert "c1" in result.matches
        assert "c2" in result.matches
        assert "c3" not in result.matches

    def test_conjunctive_query(self, property_kb):
        machine = SerialMachine(property_kb)
        result = classify(machine, ["red", "fast"])
        assert "c1" in result.matches
        assert "c2" not in result.matches  # red but not fast

    def test_subtree_inherits_property(self, property_kb):
        machine = SerialMachine(property_kb)
        result = classify(machine, ["fast"])
        net = property_kb
        children_of_c1 = {
            net.node(l.dest).name
            for l in net.outgoing_by_relation("c1", "inverse:is-a")
        }
        assert children_of_c1 <= set(result.matches)

    def test_empty_query_rejected(self):
        with pytest.raises(ClassificationError):
            classification_program([])

    def test_too_many_properties_rejected(self):
        with pytest.raises(ClassificationError):
            classification_program([f"p{i}" for i in range(9)])

    def test_timing_recorded(self, property_kb):
        machine = SerialMachine(property_kb)
        result = classify(machine, ["red"])
        assert result.time_us > 0
        assert result.properties == ("red",)

    def test_parallel_machine_agrees(self, property_kb):
        import copy

        serial = classify(SerialMachine(copy.deepcopy(property_kb)), ["red"])
        snap = classify(
            SnapMachine(copy.deepcopy(property_kb),
                        MachineConfig(num_clusters=4, mus_per_cluster=2)),
            ["red"],
        )
        assert sorted(serial.matches) == sorted(snap.matches)
