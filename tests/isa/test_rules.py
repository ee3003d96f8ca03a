"""Propagation-rule state machines and the rule parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    PropagationRule,
    RuleError,
    chain,
    comb,
    custom,
    parse_rule,
    seq,
    spread,
    step,
)


class TestSpread:
    def test_initial_state_allows_both_relations(self):
        rule = spread("is-a", "last")
        moves = dict(rule.moves(0))
        assert moves == {"is-a": 0, "last": 1}

    def test_after_switch_only_r2(self):
        rule = spread("is-a", "last")
        assert dict(rule.moves(1)) == {"last": 1}

    def test_never_terminal(self):
        rule = spread("a", "b")
        assert rule.moves(0)
        assert rule.moves(1)


class TestSeq:
    def test_exactly_one_hop_each(self):
        rule = seq("r1", "r2")
        assert dict(rule.moves(0)) == {"r1": 1}
        assert dict(rule.moves(1)) == {"r2": 2}
        assert rule.moves(2) == ()


class TestCombChainStep:
    def test_comb_interleaves(self):
        rule = comb("a", "b")
        assert dict(rule.moves(0)) == {"a": 0, "b": 0}

    def test_chain_single_relation(self):
        rule = chain("r")
        assert dict(rule.moves(0)) == {"r": 0}
        assert len(rule.table) == 1

    def test_step_terminal_after_one(self):
        rule = step("r")
        assert dict(rule.moves(0)) == {"r": 1}
        assert rule.moves(1) == ()


class TestCustom:
    def test_custom_table(self):
        rule = custom("zigzag", ("a", "b"), {0: [("a", 1)], 1: [("b", 0)]})
        assert dict(rule.moves(0)) == {"a": 1}
        assert dict(rule.moves(1)) == {"b": 0}

    def test_dangling_state_rejected(self):
        with pytest.raises(RuleError):
            custom("bad", ("a",), {0: [("a", 7)]})

    def test_missing_initial_state_rejected(self):
        with pytest.raises(RuleError):
            PropagationRule("bad", ("a",), {1: ()}, initial_state=0)


class TestParser:
    def test_parse_spread(self):
        rule = parse_rule("spread(is-a, last)")
        assert rule.rule_type == "spread"
        assert rule.relations == ("is-a", "last")

    def test_parse_without_spaces(self):
        rule = parse_rule("seq(first,next)")
        assert rule.relations == ("first", "next")

    def test_parse_single_relation_rules(self):
        assert parse_rule("chain(r)").rule_type == "chain"
        assert parse_rule("step(r)").rule_type == "step"

    def test_str_roundtrip(self):
        rule = spread("is-a", "last")
        assert parse_rule(str(rule)).table == rule.table

    def test_unknown_rule_type(self):
        with pytest.raises(RuleError):
            parse_rule("zigzag(a,b)")

    def test_malformed_syntax(self):
        with pytest.raises(RuleError):
            parse_rule("spread is-a last")

    def test_wrong_arity(self):
        with pytest.raises(RuleError):
            parse_rule("spread(only-one)")


@given(
    r1=st.sampled_from(["is-a", "first", "next", "rel-x"]),
    r2=st.sampled_from(["last", "aux", "rel-y"]),
    kind=st.sampled_from(["spread", "seq", "comb"]),
)
@settings(max_examples=30, deadline=None)
def test_property_all_transitions_target_known_states(r1, r2, kind):
    rule = parse_rule(f"{kind}({r1},{r2})")
    for state in rule.table:
        for _relation, nxt in rule.moves(state):
            assert nxt in rule.table
