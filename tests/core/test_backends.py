"""Unit tests for the propagation-backend layer and engine dispatch.

Covers the backend registry/selection API, the vectorized backend's
adjacency-cache lifecycle, the table-driven instruction dispatch
(including subclass fallback), and deterministic collect ordering
across partition policies.
"""

import dataclasses

import pytest

from repro.core import (
    BACKENDS,
    ExecutionError,
    FunctionalEngine,
    PropagationBackend,
    PythonBackend,
    VectorizedBackend,
    get_default_backend,
    make_backend,
    set_default_backend,
)
from repro.core.state import MachineState
from repro.core.tables import MACHINE_NODE_CAPACITY
from repro.isa import SetMarker, assemble
from repro.network import SemanticNetwork
from repro.network.generator import generate_hierarchy_kb


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
def test_registry_names():
    assert set(BACKENDS) == {"python", "vectorized"}
    assert BACKENDS["python"] is PythonBackend
    assert BACKENDS["vectorized"] is VectorizedBackend


def test_make_backend_forms():
    assert isinstance(make_backend("python"), PythonBackend)
    assert isinstance(make_backend("vectorized"), VectorizedBackend)
    instance = VectorizedBackend()
    assert make_backend(instance) is instance
    assert isinstance(make_backend(None), PythonBackend)  # default


def test_make_backend_unknown_name():
    with pytest.raises((KeyError, ValueError)):
        make_backend("simd")


def test_default_backend_roundtrip():
    assert get_default_backend() == "python"
    try:
        set_default_backend("vectorized")
        assert get_default_backend() == "vectorized"
        assert isinstance(make_backend(None), VectorizedBackend)
        engine = FunctionalEngine(generate_hierarchy_kb(30, branching=3))
        assert engine.backend_name == "vectorized"
    finally:
        set_default_backend("python")
    assert get_default_backend() == "python"


def test_set_default_backend_rejects_unknown():
    with pytest.raises(ValueError):
        set_default_backend("cuda")
    assert get_default_backend() == "python"


def test_engine_backend_name():
    network = generate_hierarchy_kb(30, branching=3)
    assert FunctionalEngine(network).backend_name == "python"
    assert FunctionalEngine(
        network, backend="vectorized"
    ).backend_name == "vectorized"


def test_propagation_backend_is_abstract():
    with pytest.raises(NotImplementedError):
        PropagationBackend().propagate(None, None)


# ----------------------------------------------------------------------
# Adjacency cache lifecycle
# ----------------------------------------------------------------------
def _engine(backend="vectorized", nodes=60):
    return FunctionalEngine(
        generate_hierarchy_kb(nodes, branching=3), 4, backend=backend
    )


PROGRAM = """
SEARCH-NODE thing b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
"""


def test_adjacency_cached_across_runs():
    engine = _engine()
    program = assemble(PROGRAM)
    engine.run(program)
    adjacency = engine.backend._adj
    assert adjacency is not None
    engine.state.reset_markers()
    engine.run(program)
    assert engine.backend._adj is adjacency  # same KB: reused


def test_mutation_version_invalidates_cache():
    engine = _engine()
    program = assemble(PROGRAM)
    engine.run(program)
    adjacency = engine.backend._adj
    engine.execute(assemble_one("CREATE thing part-of 1.0 newpart"))
    engine.state.reset_markers()
    engine.run(program)
    assert engine.backend._adj is not adjacency  # topology changed


def test_cache_keyed_on_state_identity():
    backend = VectorizedBackend()
    engine_a = FunctionalEngine(
        generate_hierarchy_kb(30, branching=3), 2, backend=backend
    )
    engine_b = FunctionalEngine(
        generate_hierarchy_kb(45, branching=3), 2, backend=backend
    )
    program = assemble(PROGRAM)
    engine_a.run(program)
    adjacency_a = backend._adj
    engine_b.run(program)
    assert backend._adj is not adjacency_a  # different MachineState


def test_mutation_version_counter():
    network = SemanticNetwork()
    for name in ("a", "b"):
        network.add_node(name)
    state = MachineState(network, 2)
    version = state.mutation_version
    state.add_link_runtime(0, "r1", 1, 2.0)
    assert state.mutation_version == version + 1
    state.remove_link_runtime(0, "r1", 1)
    assert state.mutation_version == version + 2
    # Removing a link that is not there must not dirty the cache key.
    state.remove_link_runtime(0, "r1", 1)
    assert state.mutation_version == version + 2


def assemble_one(text):
    program = assemble(text)
    return next(iter(program))


# ----------------------------------------------------------------------
# Machine capacity override
# ----------------------------------------------------------------------
def test_machine_capacity_override():
    """machine_capacity replaces the prototype's 32K node budget, so
    benchmark KBs larger than the physical machine can be built."""
    from repro.core.tables import TableError

    network = generate_hierarchy_kb(120, branching=3)
    with pytest.raises(TableError):
        MachineState(network, 4, machine_capacity=50)
    state = MachineState(network, 4, machine_capacity=network.num_nodes)
    assert sum(t.num_nodes for t in state.clusters) == network.num_nodes
    # Default still enforces the prototype budget.
    assert MACHINE_NODE_CAPACITY == 32768
    assert MachineState(network, 4).clusters  # well under 32K: fine


# ----------------------------------------------------------------------
# Dispatch table
# ----------------------------------------------------------------------
def test_dispatch_subclass_fallback():
    """An instruction subclass not in the table dispatches via its MRO
    (and is memoized), instead of falling through to 'unsupported'."""

    @dataclasses.dataclass(frozen=True)
    class TracingSetMarker(SetMarker):
        pass

    engine = _engine(backend="python", nodes=30)
    record = engine.execute(TracingSetMarker(64, 1.0))
    assert record.opcode == "SET-MARKER"
    assert engine.state.marker_set_nodes(64)


def test_dispatch_unknown_instruction():
    class NotAnInstruction:
        opcode = "BOGUS"

    engine = _engine(backend="python", nodes=30)
    with pytest.raises(ExecutionError):
        engine.execute(NotAnInstruction())


# ----------------------------------------------------------------------
# Deterministic collect ordering (cross-policy regression)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "vectorized"])
def test_collect_order_identical_across_policies(backend):
    """COLLECT results must not depend on the partition policy.

    COLLECT-RELATION emits several tuples with the same leading global
    id (one per link of a marked node); a sort keyed only on that id
    would leave their relative order at the mercy of cluster visit
    order.  The full-tuple sort pins it."""
    def build():
        net = SemanticNetwork()
        for i in range(12):
            net.add_node(f"n{i}")
        for dest in (5, 3, 9, 1, 7):  # several r1 links out of n0
            net.add_link(0, "r1", dest, 0.25 * dest)
        for i in range(1, 11):
            net.add_link(i, "r1", i + 1, 1.0)
        return net

    program = assemble("""
    SEARCH-NODE n0 b0
    PROPAGATE b0 b1 chain(r1)
    OR-MARKER b0 b1 b2
    COLLECT-RELATION b2 r1
    COLLECT-NODE b2
    """)
    outputs = []
    for policy in ("round-robin", "semantic", "sequential"):
        for clusters in (1, 3, 5):
            engine = FunctionalEngine(build(), clusters, policy,
                                      backend=backend)
            records = engine.run(program).records
            outputs.append([r.result for r in records
                            if r.result is not None])
    assert all(out == outputs[0] for out in outputs[1:])
    # The relation collect really does contain leading-id ties.
    relation_rows = outputs[0][0]
    leading = [row[0] for row in relation_rows]
    assert len(set(leading)) < len(leading)
    assert relation_rows == sorted(relation_rows)
