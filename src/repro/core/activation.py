"""Marker activation messages.

When propagation reaches a node stored on another cluster, *"an
activation message is placed in the marker activation memory for
transmission by the CU"* (§III-A).  *"The length of the message is
64 b and includes the marker, value, function, destination address,
first origin address, and propagation rule"* (§III-B).

:class:`ActivationMessage` is the in-simulator representation (it keeps
full-precision values and object references so functional execution is
exact); :meth:`ActivationMessage.pack` /
:func:`unpack` implement the literal 64-bit wire format with the same
field budget the hardware used — the 32-bit value is truncated to
bfloat16 on the wire, and the propagation rule travels as a small
index into the compile-time-downloaded rule table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..isa.rules import PropagationRule

#: Wire-field widths, in bits (they sum to 64).
FIELD_WIDTHS = {
    "marker": 7,        # 128 markers
    "value": 16,        # bfloat16 truncation of the float32 value
    "function": 6,      # hop-function token
    "rule": 3,          # index into the downloaded rule table
    "state": 2,         # rule state machine position
    "dest_cluster": 5,  # 32 clusters
    "dest_local": 10,   # 1024 nodes/cluster
    "origin": 15,       # first-origin global node id (32K nodes)
}

MESSAGE_BITS = 64
MESSAGE_BYTES = MESSAGE_BITS // 8

assert sum(FIELD_WIDTHS.values()) == MESSAGE_BITS


class MessageError(ValueError):
    """Raised when a message field exceeds its wire width."""


def to_bfloat16_bits(value: float) -> int:
    """Top 16 bits of the IEEE-754 float32 encoding."""
    return int(np.float32(value).view(np.uint32)) >> 16


def from_bfloat16_bits(bits: int) -> float:
    """Reconstruct a float from its bfloat16 bits."""
    return float(np.uint32(bits << 16).view(np.float32))


@dataclass(slots=True)
class ActivationMessage:
    """A marker in flight between clusters (or between waves locally).

    ``level`` is the propagation tier used by the tiered barrier
    synchronization protocol (§III-C); ``hops`` counts link traversals
    so path-length statistics can be gathered; neither travels on the
    wire (the tier is reported through the sync network instead).
    """

    marker: int
    value: float
    function: int
    rule: PropagationRule
    state: int
    dest_cluster: int
    dest_local: int
    origin: int
    level: int = 0
    hops: int = 0

    def pack(self, rule_table: Sequence[PropagationRule]) -> int:
        """Encode to the 64-bit wire format.

        ``rule_table`` is the program's downloaded rule table; the
        message carries only this rule's index.
        """
        try:
            rule_index = rule_table.index(self.rule)
        except ValueError:
            raise MessageError("rule not in downloaded rule table") from None
        fields = {
            "marker": self.marker,
            "value": to_bfloat16_bits(self.value),
            "function": self.function,
            "rule": rule_index,
            "state": self.state,
            "dest_cluster": self.dest_cluster,
            "dest_local": self.dest_local,
            "origin": self.origin if self.origin >= 0 else 0,
        }
        raw = 0
        shift = 0
        for name, width in FIELD_WIDTHS.items():
            val = fields[name]
            if not 0 <= val < (1 << width):
                raise MessageError(
                    f"field {name}={val} exceeds {width}-bit wire width"
                )
            raw |= val << shift
            shift += width
        return raw

    def to_bytes(self, rule_table: Sequence[PropagationRule]) -> bytes:
        """Wire bytes, little-endian."""
        return struct.pack("<Q", self.pack(rule_table))


def unpack(
    raw: int,
    rule_table: Sequence[PropagationRule],
    level: int = 0,
    hops: int = 0,
) -> ActivationMessage:
    """Decode a 64-bit wire word back to a message.

    The value comes back bfloat16-truncated (the hardware's actual
    precision on the wire).
    """
    fields = {}
    shift = 0
    for name, width in FIELD_WIDTHS.items():
        fields[name] = (raw >> shift) & ((1 << width) - 1)
        shift += width
    rule_index = fields["rule"]
    if rule_index >= len(rule_table):
        raise MessageError(f"rule index {rule_index} outside rule table")
    return ActivationMessage(
        marker=fields["marker"],
        value=from_bfloat16_bits(fields["value"]),
        function=fields["function"],
        rule=rule_table[rule_index],
        state=fields["state"],
        dest_cluster=fields["dest_cluster"],
        dest_local=fields["dest_local"],
        origin=fields["origin"],
        level=level,
        hops=hops,
    )


def from_bytes(
    data: bytes, rule_table: Sequence[PropagationRule]
) -> ActivationMessage:
    """Decode wire bytes (inverse of :meth:`ActivationMessage.to_bytes`)."""
    if len(data) != MESSAGE_BYTES:
        raise MessageError(
            f"activation messages are {MESSAGE_BYTES} bytes, got {len(data)}"
        )
    (raw,) = struct.unpack("<Q", data)
    return unpack(raw, rule_table)
