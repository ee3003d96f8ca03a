"""Marker arithmetic/logic functions.

Markers *"carry a lightweight arithmetic or logical operation which is
performed along each propagation step ... to update values or
influence the status of other markers"* (paper §I-C).  Because the
microcode table of functions is downloaded at compile time, *"each
marker only needs to carry a single-byte token indicating the function
to be performed"* (§III-B) — so functions are identified by 8-bit
tokens and resolved through a :class:`FunctionRegistry`.

Three kinds of functions exist, matching the instruction set:

* **hop functions** — applied at every link traversal during
  PROPAGATE: ``new_value = f(value, link_weight)``, plus a liveness
  predicate that can kill a marker (thresholding);
* **combine functions** — used by AND-MARKER / OR-MARKER to merge the
  values of two source markers into the result marker;
* **unary functions** — applied by FUNC-MARKER to a marker's value at
  every node where it is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

#: Function tokens are a single byte (paper §III-B).
MAX_FUNCTION_TOKENS = 256


class FunctionError(ValueError):
    """Raised for unknown tokens or exhausted token space."""


def always_alive(value: float) -> bool:
    """Default liveness predicate: the marker never dies on a hop.

    A module-level function (not a per-instance lambda) so the
    per-arrival expansion can recognise "no thresholding" by identity
    and skip the predicate call.
    """
    return True


@dataclass(frozen=True)
class HopFunction:
    """Per-hop update applied as a marker traverses a link."""

    name: str
    combine: Callable[[float, float], float]
    #: Marker survives the hop only while this holds; used for cost
    #: thresholding during hypothesis evaluation.
    alive: Callable[[float], bool] = always_alive

    def apply(self, value: float, weight: float) -> float:
        """Apply the per-hop update: f(value, link weight)."""
        return self.combine(value, weight)


@dataclass(frozen=True)
class CombineFunction:
    """Binary merge of two marker values (boolean instructions)."""

    name: str
    combine: Callable[[float, float], float]
    #: Optional bulk form over two float64 numpy arrays, used by the
    #: word-parallel AND/OR-MARKER; it must be bit-identical to mapping
    #: ``combine``, which is what :meth:`combine_many` does without it.
    vcombine: Optional[Callable] = None

    def combine_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``combine`` applied pairwise over two float64 arrays."""
        # Python float arithmetic never warns; neither does its bulk form.
        with np.errstate(all="ignore"):
            if self.vcombine is not None:
                return self.vcombine(a, b)
            return np.fromiter(map(self.combine, a.tolist(), b.tolist()),
                               np.float64, len(a))


@dataclass(frozen=True)
class UnaryFunction:
    """Value rewrite applied by FUNC-MARKER."""

    name: str
    apply: Callable[[float], float]

    def apply_many(self, values: np.ndarray) -> np.ndarray:
        """``apply`` mapped over a float64 array."""
        return np.fromiter(map(self.apply, values.tolist()),
                           np.float64, len(values))


class FunctionRegistry:
    """Token ↔ function tables for the three function kinds.

    Standard functions occupy fixed low tokens; applications may
    register custom functions (e.g. parameterized thresholds) which
    receive the next free token.
    """

    def __init__(self) -> None:
        self._hop: Dict[int, HopFunction] = {}
        self._combine: Dict[int, CombineFunction] = {}
        self._unary: Dict[int, UnaryFunction] = {}
        self._hop_by_name: Dict[str, int] = {}
        self._combine_by_name: Dict[str, int] = {}
        self._unary_by_name: Dict[str, int] = {}
        self._install_standard()

    # -- registration ---------------------------------------------------
    def _next_token(self, table: Dict[int, object]) -> int:
        token = len(table)
        if token >= MAX_FUNCTION_TOKENS:
            raise FunctionError("function token space exhausted (256)")
        return token

    def register_hop(self, fn: HopFunction) -> int:
        """Register a hop function; returns its token (idempotent by name)."""
        if fn.name in self._hop_by_name:
            return self._hop_by_name[fn.name]
        token = self._next_token(self._hop)
        self._hop[token] = fn
        self._hop_by_name[fn.name] = token
        return token

    def register_combine(self, fn: CombineFunction) -> int:
        """Register a combine function; returns its token."""
        if fn.name in self._combine_by_name:
            return self._combine_by_name[fn.name]
        token = self._next_token(self._combine)
        self._combine[token] = fn
        self._combine_by_name[fn.name] = token
        return token

    def register_unary(self, fn: UnaryFunction) -> int:
        """Register a unary function; returns its token."""
        if fn.name in self._unary_by_name:
            return self._unary_by_name[fn.name]
        token = self._next_token(self._unary)
        self._unary[token] = fn
        self._unary_by_name[fn.name] = token
        return token

    # -- lookup -----------------------------------------------------------
    def hop(self, ref) -> HopFunction:
        """Resolve a hop function by token or name."""
        return self._lookup(ref, self._hop, self._hop_by_name, "hop")

    def combine(self, ref) -> CombineFunction:
        """Resolve a combine function by token or name."""
        return self._lookup(ref, self._combine, self._combine_by_name, "combine")

    def unary(self, ref) -> UnaryFunction:
        """Resolve a unary function by token or name."""
        return self._lookup(ref, self._unary, self._unary_by_name, "unary")

    def _lookup(self, ref, table: Dict, by_name: Dict, kind: str):
        if isinstance(ref, str):
            if ref not in by_name:
                raise FunctionError(f"unknown {kind} function: {ref!r}")
            return table[by_name[ref]]
        if ref not in table:
            raise FunctionError(f"unknown {kind} function token: {ref}")
        return table[ref]

    # -- standard library -----------------------------------------------
    def _install_standard(self) -> None:
        for fn in STANDARD_HOP_FUNCTIONS:
            self.register_hop(fn)
        for cfn in STANDARD_COMBINE_FUNCTIONS:
            self.register_combine(cfn)
        for ufn in STANDARD_UNARY_FUNCTIONS:
            self.register_unary(ufn)

    def make_threshold(self, limit: float, below: bool = True) -> int:
        """Register an add-weight hop function with a survival threshold.

        With ``below=True`` the marker dies once its accumulated cost
        exceeds ``limit`` — the paper's "cost of accepting a particular
        concept sequence" cut-off.
        """
        name = f"add-weight<{'=' if below else '>'}{limit}"
        predicate = (
            (lambda value: value <= limit)
            if below
            else (lambda value: value >= limit)
        )
        return self.register_hop(
            HopFunction(name, lambda v, w: v + w, predicate)
        )


#: Hop functions available to every program.
STANDARD_HOP_FUNCTIONS = (
    HopFunction("identity", lambda v, w: v),
    HopFunction("add-weight", lambda v, w: v + w),
    HopFunction("sub-weight", lambda v, w: v - w),
    HopFunction("mul-weight", lambda v, w: v * w),
    HopFunction("min-weight", lambda v, w: min(v, w)),
    HopFunction("max-weight", lambda v, w: max(v, w)),
    HopFunction("count-hops", lambda v, w: v + 1.0),
)

#: Token of the default hop function (identity).
DEFAULT_HOP = 0


def _broadcasting(name: str, fn: Callable) -> CombineFunction:
    """A combine function whose scalar form also broadcasts over arrays,
    so it doubles as its own bulk form."""
    return CombineFunction(name, fn, vcombine=fn)


#: Combine functions.  ``min``/``max`` bulk forms use explicit
#: ``np.where`` comparisons so argument-order semantics (which operand
#: wins a tie, e.g. signed zeros) match the Python builtins exactly;
#: the rest broadcast as written.
STANDARD_COMBINE_FUNCTIONS = (
    _broadcasting("first", lambda a, b: a),
    _broadcasting("second", lambda a, b: b),
    _broadcasting("add", lambda a, b: a + b),
    CombineFunction("min", lambda a, b: min(a, b),
                    vcombine=lambda a, b: np.where(b < a, b, a)),
    CombineFunction("max", lambda a, b: max(a, b),
                    vcombine=lambda a, b: np.where(b > a, b, a)),
    _broadcasting("mul", lambda a, b: a * b),
)

#: Token of the default combine function (take first operand's value).
DEFAULT_COMBINE = 0

STANDARD_UNARY_FUNCTIONS = (
    UnaryFunction("identity", lambda v: v),
    UnaryFunction("zero", lambda v: 0.0),
    UnaryFunction("negate", lambda v: -v),
    UnaryFunction("increment", lambda v: v + 1.0),
    UnaryFunction("reciprocal", lambda v: math.inf if v == 0 else 1.0 / v),
)

#: Token of the default unary function (identity).
DEFAULT_UNARY = 0


#: Comparison conditions for NOT-MARKER's (value, condition) operands.
#: Each comparison broadcasts over a numpy array of values unchanged,
#: so the one table serves the word-parallel NOT-MARKER too.
CONDITIONS: Dict[str, Callable[[float, float], bool]] = {
    "always": lambda v, ref: True,
    "eq": lambda v, ref: v == ref,
    "ne": lambda v, ref: v != ref,
    "lt": lambda v, ref: v < ref,
    "le": lambda v, ref: v <= ref,
    "gt": lambda v, ref: v > ref,
    "ge": lambda v, ref: v >= ref,
}


def condition(name: str) -> Callable[[float, float], bool]:
    """Look up a comparison condition by name."""
    try:
        return CONDITIONS[name]
    except KeyError:
        raise FunctionError(f"unknown condition: {name!r}") from None
