"""Marker function registry: tokens, standard library, thresholds."""

import math

import pytest

from repro.isa import (
    DEFAULT_COMBINE,
    DEFAULT_HOP,
    DEFAULT_UNARY,
    FunctionError,
    FunctionRegistry,
    HopFunction,
    condition,
)


@pytest.fixture
def registry():
    return FunctionRegistry()


class TestHopFunctions:
    def test_default_token_is_identity(self, registry):
        fn = registry.hop(DEFAULT_HOP)
        assert fn.name == "identity"
        assert fn.apply(3.0, 99.0) == 3.0

    def test_add_weight(self, registry):
        assert registry.hop("add-weight").apply(1.0, 2.5) == 3.5

    def test_sub_mul_min_max(self, registry):
        assert registry.hop("sub-weight").apply(5.0, 2.0) == 3.0
        assert registry.hop("mul-weight").apply(3.0, 2.0) == 6.0
        assert registry.hop("min-weight").apply(3.0, 2.0) == 2.0
        assert registry.hop("max-weight").apply(3.0, 2.0) == 3.0

    def test_count_hops(self, registry):
        assert registry.hop("count-hops").apply(4.0, 123.0) == 5.0

    def test_standard_functions_always_alive(self, registry):
        assert registry.hop("add-weight").alive(1e30)

    def test_lookup_by_name_and_token_agree(self, registry):
        # Registration is idempotent by name and returns the token.
        token = registry.register_hop(registry.hop("add-weight"))
        assert registry.hop(token) is registry.hop("add-weight")

    def test_unknown_name_raises(self, registry):
        with pytest.raises(FunctionError):
            registry.hop("no-such")

    def test_unknown_token_raises(self, registry):
        with pytest.raises(FunctionError):
            registry.hop(250)

    def test_register_custom_idempotent(self, registry):
        fn = HopFunction("double", lambda v, w: 2 * v)
        t1 = registry.register_hop(fn)
        t2 = registry.register_hop(HopFunction("double", lambda v, w: 2 * v))
        assert t1 == t2

    def test_threshold_kills_marker(self, registry):
        token = registry.make_threshold(10.0)
        fn = registry.hop(token)
        assert fn.alive(9.0)
        assert fn.alive(10.0)
        assert not fn.alive(10.5)
        assert fn.apply(4.0, 3.0) == 7.0

    def test_threshold_above(self, registry):
        token = registry.make_threshold(5.0, below=False)
        fn = registry.hop(token)
        assert fn.alive(6.0)
        assert not fn.alive(4.0)


class TestCombineFunctions:
    def test_default_is_first(self, registry):
        assert registry.combine(DEFAULT_COMBINE).combine(1.0, 2.0) == 1.0

    @pytest.mark.parametrize(
        "name,expected",
        [("first", 1.0), ("second", 2.0), ("add", 3.0), ("min", 1.0),
         ("max", 2.0), ("mul", 2.0)],
    )
    def test_standard_combines(self, registry, name, expected):
        assert registry.combine(name).combine(1.0, 2.0) == expected


class TestUnaryFunctions:
    def test_default_identity(self, registry):
        assert registry.unary(DEFAULT_UNARY).apply(7.0) == 7.0

    def test_zero_negate_increment(self, registry):
        assert registry.unary("zero").apply(9.0) == 0.0
        assert registry.unary("negate").apply(9.0) == -9.0
        assert registry.unary("increment").apply(9.0) == 10.0

    def test_reciprocal_of_zero_is_inf(self, registry):
        assert registry.unary("reciprocal").apply(0.0) == math.inf
        assert registry.unary("reciprocal").apply(4.0) == 0.25


class TestConditions:
    @pytest.mark.parametrize(
        "name,v,ref,expected",
        [
            ("always", 0.0, 9.9, True),
            ("eq", 2.0, 2.0, True),
            ("ne", 2.0, 2.0, False),
            ("lt", 1.0, 2.0, True),
            ("le", 2.0, 2.0, True),
            ("gt", 3.0, 2.0, True),
            ("ge", 1.0, 2.0, False),
        ],
    )
    def test_comparisons(self, name, v, ref, expected):
        assert condition(name)(v, ref) is expected

    def test_unknown_condition(self):
        with pytest.raises(FunctionError):
            condition("sometimes")
