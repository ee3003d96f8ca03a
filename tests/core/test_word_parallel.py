"""Word-parallel cluster primitives against their node-at-a-time oracle.

``MachineState`` runs every cluster sweep on whole status-word and
register rows.  The oracle below is the written definition of each
sweep: a loop over the nodes of one cluster that tests one status bit
and reads or writes one register at a time.  Each property fills a
small KB's status rows and complex-marker registers at random (NaN,
±0.0, inf and subnormals included), runs the oracle on one copy of the
state and the primitive on another, and compares every table, the
``WorkReport`` and any returned items.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import MachineState, WorkReport
from repro.isa import (
    CONDITIONS,
    STANDARD_COMBINE_FUNCTIONS,
    STANDARD_UNARY_FUNCTIONS,
    AndMarker,
    CollectColor,
    CollectMarker,
    CollectNode,
    CombineFunction,
    FuncMarker,
    NotMarker,
    OrMarker,
    Propagate,
    SearchColor,
    UnaryFunction,
    binary_marker,
    chain,
    complex_marker,
    condition,
)
from repro.isa.instructions import is_complex
from repro.network.graph import SemanticNetwork

# Functions registered without a bulk form: the primitives fall back to
# mapping their scalar form.
CUSTOM_COMBINE = CombineFunction("test-scaled-diff", lambda a, b: a - 2.0 * b)
CUSTOM_UNARY = UnaryFunction("test-half-less-one", lambda v: v * 0.5 - 1.0)

COMBINE_NAMES = [fn.name for fn in STANDARD_COMBINE_FUNCTIONS] + [
    CUSTOM_COMBINE.name
]
UNARY_NAMES = [fn.name for fn in STANDARD_UNARY_FUNCTIONS] + [
    CUSTOM_UNARY.name
]

#: A small marker pool, so sources and destination alias often.
MARKERS = (
    complex_marker(0), complex_marker(1), complex_marker(2),
    binary_marker(0), binary_marker(1),
)
COLORS = (0, 1, 2, 3)

values32 = st.floats(width=32)
markers = st.sampled_from(MARKERS)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The oracle: one node at a time
# ----------------------------------------------------------------------
def _marked(tables, marker):
    return [
        lid for lid in range(tables.num_nodes)
        if tables.status.test(marker, lid)
    ]


def oracle_search_color(state, cid, instr):
    tables = state.clusters[cid]
    work = WorkReport(nodes=tables.num_nodes)
    for lid in range(tables.num_nodes):
        if tables.node_table.color[lid] == instr.color:
            tables.status.set(instr.marker, lid)
            gid = tables.to_global[lid]
            tables.node_table.set_value(lid, instr.marker, instr.value, gid)
            work.sets += 1
            work.fp_ops += 1
    return work


def oracle_and_or(state, cid, instr):
    tables = state.clusters[cid]
    status, registers = tables.status, tables.node_table
    m1, m2, m3 = instr.marker1, instr.marker2, instr.marker3
    # Source status before marker-3 is written (it may alias a source).
    m1_set, m2_set = set(_marked(tables, m1)), set(_marked(tables, m2))
    is_or = isinstance(instr, OrMarker)
    for lid in range(tables.num_nodes):
        on = (lid in m1_set or lid in m2_set) if is_or else (
            lid in m1_set and lid in m2_set
        )
        if on:
            status.set(m3, lid)
        else:
            status.clear(m3, lid)
    work = WorkReport(words=status.num_words)
    if not is_complex(m3):
        return work
    combine = state.functions.combine(instr.function)
    for lid in _marked(tables, m3):
        v1 = registers.get_value(lid, m1)
        v2 = registers.get_value(lid, m2)
        origin = registers.get_origin(lid, m1)
        if origin < 0:
            origin = registers.get_origin(lid, m2)
        if is_or and lid not in m1_set:
            value = v2
        elif is_or and lid not in m2_set:
            value = v1
        else:
            value = combine.combine(v1, v2)
        registers.set_value(lid, m3, value, origin)
        work.fp_ops += 1
    return work


def oracle_not(state, cid, instr):
    tables = state.clusters[cid]
    status = tables.status
    was_set = set(_marked(tables, instr.marker1))
    for lid in range(tables.num_nodes):
        if lid in was_set:
            status.clear(instr.marker2, lid)
        else:
            status.set(instr.marker2, lid)
    work = WorkReport(words=status.num_words)
    if instr.condition != "always":
        cond = condition(instr.condition)
        # marker-1 is read after the complement: with marker-2 aliasing
        # it, the loop sees the complemented row.
        for lid in _marked(tables, instr.marker1):
            v1 = tables.node_table.get_value(lid, instr.marker1)
            work.fp_ops += 1
            if not cond(v1, instr.value):
                status.set(instr.marker2, lid)
                work.sets += 1
    return work


def oracle_func(state, cid, instr):
    tables = state.clusters[cid]
    work = WorkReport(words=tables.status.num_words)
    if not is_complex(instr.marker):
        return work
    unary = state.functions.unary(instr.function)
    for lid in _marked(tables, instr.marker):
        value = tables.node_table.get_value(lid, instr.marker)
        origin = tables.node_table.get_origin(lid, instr.marker)
        tables.node_table.set_value(lid, instr.marker, unary.apply(value),
                                    origin)
        work.fp_ops += 1
    return work


def oracle_seeds(state, ctx, cid):
    tables = state.clusters[cid]
    instr = ctx.instr
    work = WorkReport(words=tables.status.num_words)
    out = []
    for lid in _marked(tables, instr.marker1):
        out.append((
            cid, lid, ctx.rule.initial_state,
            tables.node_table.get_value(lid, instr.marker1),
            tables.to_global[lid], 0,
        ))
        work.nodes += 1
    ctx.alpha += len(out)
    return out, work


def oracle_collect(state, cid, instr):
    tables = state.clusters[cid]
    registers = tables.node_table
    work = WorkReport(words=tables.status.num_words)
    out = []
    for lid in _marked(tables, instr.marker):
        gid = tables.to_global[lid]
        if isinstance(instr, CollectNode):
            out.append((gid, state.node_name(gid)))
        elif isinstance(instr, CollectMarker):
            out.append((gid, registers.get_value(lid, instr.marker),
                        registers.get_origin(lid, instr.marker)))
        else:
            out.append((gid, int(registers.color[lid])))
        work.nodes += 1
    return out, work


# ----------------------------------------------------------------------
# Random machine states
# ----------------------------------------------------------------------
@st.composite
def machine_states(draw):
    """A 1–3 cluster machine over up to 80 nodes with random marker
    rows, registers and colors."""
    num_nodes = draw(st.integers(1, 80))
    num_clusters = draw(st.integers(1, 3))
    net = SemanticNetwork()
    for i in range(num_nodes):
        net.add_node(f"n{i}", draw(st.sampled_from(COLORS)))
    for i in range(1, num_nodes):
        net.add_link(i, "up", draw(st.integers(0, i - 1)), 1.0)
    state = MachineState(net, num_clusters)
    state.functions.register_combine(CUSTOM_COMBINE)
    state.functions.register_unary(CUSTOM_UNARY)
    for tables in state.clusters:
        n = tables.num_nodes
        for marker in MARKERS:
            for lid in draw(st.sets(st.integers(0, max(0, n - 1)),
                                    max_size=n)):
                if lid < n:
                    tables.status.set(marker, lid)
            if not is_complex(marker):
                continue
            for lid in range(n):
                if draw(st.booleans()):
                    tables.node_table.set_value(
                        lid, marker, draw(values32),
                        draw(st.integers(-1, num_nodes)),
                    )
    return state


def _tables_of(state):
    return [
        (
            t.status.snapshot().tobytes(),
            t.node_table.value.view(np.uint32).tobytes(),
            t.node_table.origin.tobytes(),
            t.node_table.color.tobytes(),
            sorted(t.node_table._dirty),
        )
        for t in state.clusters
    ]


def _check_work(expected, got):
    assert got == expected
    for item in dataclasses.fields(WorkReport):
        assert type(getattr(got, item.name)) is int, item.name


def _run_both(state, oracle, primitive):
    """Run the oracle and the primitive on twin copies of ``state`` for
    every cluster; return both copies and both per-cluster outputs."""
    twin = copy.deepcopy(state)
    expected = [oracle(twin, cid) for cid in range(twin.num_clusters)]
    got = [primitive(state, cid) for cid in range(state.num_clusters)]
    assert _tables_of(state) == _tables_of(twin)
    return expected, got


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@SETTINGS
@given(machine_states(), markers, markers, markers,
       st.sampled_from(COMBINE_NAMES), st.booleans())
def test_and_or_marker(state, m1, m2, m3, function, is_or):
    instr = (OrMarker if is_or else AndMarker)(m1, m2, m3, function)
    primitive = state.or_marker if is_or else state.and_marker
    expected, got = _run_both(
        state,
        lambda s, cid: oracle_and_or(s, cid, instr),
        lambda s, cid: primitive(cid, instr),
    )
    for want, work in zip(expected, got):
        _check_work(want, work)


@SETTINGS
@given(machine_states(), markers, markers, values32,
       st.sampled_from(sorted(CONDITIONS)))
def test_not_marker(state, m1, m2, value, cond):
    instr = NotMarker(m1, m2, value, cond)
    expected, got = _run_both(
        state,
        lambda s, cid: oracle_not(s, cid, instr),
        lambda s, cid: s.not_marker(cid, instr),
    )
    for want, work in zip(expected, got):
        _check_work(want, work)


@SETTINGS
@given(machine_states(), markers, st.sampled_from(UNARY_NAMES))
def test_func_marker(state, marker, function):
    instr = FuncMarker(marker, function)
    expected, got = _run_both(
        state,
        lambda s, cid: oracle_func(s, cid, instr),
        lambda s, cid: s.func_marker(cid, instr),
    )
    for want, work in zip(expected, got):
        _check_work(want, work)


@SETTINGS
@given(machine_states(), markers, st.sampled_from(COLORS + (200,)),
       values32)
def test_search_color(state, marker, color, value):
    instr = SearchColor(color, marker, value)
    expected, got = _run_both(
        state,
        lambda s, cid: oracle_search_color(s, cid, instr),
        lambda s, cid: s.search_color(cid, instr),
    )
    for want, work in zip(expected, got):
        _check_work(want, work)


@SETTINGS
@given(machine_states(), markers, st.integers(0, 5))
def test_propagate_seed_scan(state, marker, level):
    instr = Propagate(marker, complex_marker(3), chain("up"))
    twin = copy.deepcopy(state)
    ctx, twin_ctx = (s.make_context(instr, level) for s in (state, twin))
    for cid in range(state.num_clusters):
        want_seeds, want_work = oracle_seeds(twin, twin_ctx, cid)
        seeds, work = state.seeds(ctx, cid)
        assert repr(seeds) == repr(want_seeds)
        _check_work(want_work, work)
    assert ctx.alpha == twin_ctx.alpha
    assert _tables_of(state) == _tables_of(twin)


@SETTINGS
@given(machine_states(), markers,
       st.sampled_from((CollectNode, CollectMarker, CollectColor)))
def test_collect(state, marker, kind):
    instr = kind(marker)
    primitive = {
        CollectNode: state.collect_node,
        CollectMarker: state.collect_marker,
        CollectColor: state.collect_color,
    }[kind]
    expected, got = _run_both(
        state,
        lambda s, cid: oracle_collect(s, cid, instr),
        lambda s, cid: primitive(cid, instr),
    )
    for (want_items, want_work), (items, work) in zip(expected, got):
        # repr compares NaN payload-blind but sign- and type-exact.
        assert repr(items) == repr(want_items)
        _check_work(want_work, work)


@pytest.mark.parametrize("name", COMBINE_NAMES)
def test_combine_bulk_form_matches_scalar(name):
    """Each bulk combine form maps its scalar form bit for bit."""
    from repro.isa import FunctionRegistry

    registry = FunctionRegistry()
    registry.register_combine(CUSTOM_COMBINE)
    fn = registry.combine(name)
    specials = [0.0, -0.0, 1.5, -2.0, float("inf"), float("-inf"),
                float("nan")]
    a = np.array([x for x in specials for _ in specials])
    b = np.array(specials * len(specials))
    got = fn.combine_many(a, b)
    want = [fn.combine(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert np.asarray(got, dtype=np.float64).tobytes() == np.array(
        want, dtype=np.float64).tobytes()
