"""Propagation rules.

*"Propagation rules have the format of rule-type(r1,r2).  The
pre-defined or custom rule-type guides the flow of markers.  It
specifies a traversal strategy for passing through relations r1 and
r2.  For example, the propagation rule spread(r1,r2) sends markers
along a chain of r1 links until a link of type r2 is encountered at
which time they switch to r2"* (paper §II-B).

A rule is a finite state machine over relation names: from the current
state, the rule lists which relations a marker may traverse and the
state it enters after each.  The engine tracks (node, state) visited
pairs, so propagation terminates on cyclic networks.

Pre-defined rule types:

``spread(r1, r2)``
    follow ``r1*`` then switch permanently to ``r2*`` — the workhorse
    of Fig. 5 (``spread(is-a, last)``).
``seq(r1, r2)``
    exactly one ``r1`` hop then one ``r2`` hop.
``comb(r1, r2)``
    any interleaving of ``r1`` and ``r2`` links.
``chain(r)``
    follow ``r*`` (equivalent to ``spread(r, r)``).
``step(r)``
    exactly one ``r`` hop.

Custom rules supply an explicit transition table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple


class RuleError(ValueError):
    """Raised for malformed propagation rules."""


#: A transition table: state -> ((relation-name, next-state), ...).
TransitionTable = Mapping[int, Sequence[Tuple[str, int]]]


@dataclass(frozen=True)
class PropagationRule:
    """A compiled propagation-rule state machine.

    ``rule_type`` and the relation arguments preserve the source form
    (for disassembly and message encoding); ``table`` drives traversal.
    """

    rule_type: str
    relations: Tuple[str, ...]
    table: Mapping[int, Tuple[Tuple[str, int], ...]]
    initial_state: int = 0

    def __post_init__(self) -> None:
        if self.initial_state not in self.table:
            raise RuleError(
                f"initial state {self.initial_state} missing from table"
            )
        for state, transitions in self.table.items():
            for relation, nxt in transitions:
                if nxt not in self.table:
                    raise RuleError(
                        f"transition {state}--{relation}-->{nxt} targets "
                        f"unknown state"
                    )

    def moves(self, state: int) -> Tuple[Tuple[str, int], ...]:
        """Allowed (relation, next-state) moves from ``state``."""
        return tuple(self.table.get(state, ()))

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        args = ", ".join(self.relations)
        return f"{self.rule_type}({args})"


def _freeze(table: TransitionTable) -> Dict[int, Tuple[Tuple[str, int], ...]]:
    return {state: tuple(moves) for state, moves in table.items()}


def spread(r1: str, r2: str) -> PropagationRule:
    """``r1*`` then switch to ``r2*`` on first ``r2`` link encountered."""
    table = {
        0: ((r1, 0), (r2, 1)),
        1: ((r2, 1),),
    }
    return PropagationRule("spread", (r1, r2), _freeze(table))


def seq(r1: str, r2: str) -> PropagationRule:
    """Exactly one ``r1`` hop followed by exactly one ``r2`` hop."""
    table = {
        0: ((r1, 1),),
        1: ((r2, 2),),
        2: (),
    }
    return PropagationRule("seq", (r1, r2), _freeze(table))


def comb(r1: str, r2: str) -> PropagationRule:
    """Any interleaving of ``r1`` and ``r2`` links."""
    table = {0: ((r1, 0), (r2, 0))}
    return PropagationRule("comb", (r1, r2), _freeze(table))


def chain(r: str) -> PropagationRule:
    """Unbounded traversal of a single relation type."""
    table = {0: ((r, 0),)}
    return PropagationRule("chain", (r,), _freeze(table))


def step(r: str) -> PropagationRule:
    """A single hop of relation ``r``."""
    table = {0: ((r, 1),), 1: ()}
    return PropagationRule("step", (r,), _freeze(table))


def custom(
    name: str, relations: Sequence[str], table: TransitionTable
) -> PropagationRule:
    """Build a custom rule from an explicit transition table."""
    return PropagationRule(name, tuple(relations), _freeze(table))


#: Factories for the pre-defined rule types, by source syntax name.
RULE_TYPES = {
    "spread": spread,
    "seq": seq,
    "comb": comb,
    "chain": chain,
    "step": step,
}


def parse_rule(text: str) -> PropagationRule:
    """Parse source syntax like ``spread(is-a, last)`` into a rule."""
    text = text.strip()
    open_paren = text.find("(")
    if open_paren == -1 or not text.endswith(")"):
        raise RuleError(f"malformed rule syntax: {text!r}")
    rule_type = text[:open_paren].strip()
    args = [a.strip() for a in text[open_paren + 1: -1].split(",") if a.strip()]
    factory = RULE_TYPES.get(rule_type)
    if factory is None:
        raise RuleError(
            f"unknown rule type {rule_type!r}; "
            f"choose from {sorted(RULE_TYPES)}"
        )
    try:
        return factory(*args)
    except TypeError:
        raise RuleError(
            f"rule {rule_type!r} given {len(args)} relations"
        ) from None
