"""Relation registry: ids, names, inverses, capacity."""

import pytest

from repro.network.relation import (
    MAX_RELATION_TYPES,
    RelationError,
    RelationRegistry,
    STANDARD_RELATIONS,
)


class TestRegistration:
    def test_standard_relations_preregistered(self):
        registry = RelationRegistry()
        for name in STANDARD_RELATIONS:
            assert name in registry

    def test_register_returns_dense_ids(self):
        registry = RelationRegistry()
        base = len(registry)
        assert registry.register("rel-a") == base
        assert registry.register("rel-b") == base + 1

    def test_register_is_idempotent(self):
        registry = RelationRegistry()
        first = registry.register("agent-of")
        second = registry.register("agent-of")
        assert first == second
        assert len([n for n in registry if n == "agent-of"]) == 1

    def test_id_name_roundtrip(self):
        registry = RelationRegistry()
        rid = registry.register("part-of-x")
        assert registry.name_of(rid) == "part-of-x"
        assert registry.get("part-of-x") == rid

    def test_unknown_id_raises(self):
        registry = RelationRegistry()
        with pytest.raises(RelationError):
            registry.name_of(999_999)

    def test_get_returns_none_for_unknown(self):
        registry = RelationRegistry()
        assert registry.get("missing") is None

    def test_len_counts_registrations(self):
        registry = RelationRegistry()
        before = len(registry)
        registry.register("one-more")
        assert len(registry) == before + 1

    def test_capacity_is_64k(self):
        assert MAX_RELATION_TYPES == 64 * 1024


class TestInverses:
    def test_inverse_name_convention(self):
        registry = RelationRegistry()
        assert registry.inverse_name("is-a") == "inverse:is-a"

    def test_inverse_of_inverse_is_original(self):
        registry = RelationRegistry()
        assert registry.inverse_name("inverse:is-a") == "is-a"
