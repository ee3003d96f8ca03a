"""Propagation-backend equivalence gate: python ≡ vectorized.

Runs the same propagation programs on a 6K-node hierarchy KB over 16
clusters through the python backend (the golden model) and the
vectorized backend, and requires

* equal sha256 fingerprints over the final marker state (status bits,
  value and origin registers of every cluster) and every instruction
  record, collects included;
* equal event (marker arrival) counts;
* a vectorized speedup of at least 3x on the timed propagation sweeps.

A negative case flips one status bit in the vectorized engine's state
before fingerprinting and checks that the comparison then fails.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_perf.py``.
"""

import hashlib
import time

import pytest

from repro.core import FunctionalEngine
from repro.core.state import MachineState
from repro.isa import assemble
from repro.network.generator import generate_hierarchy_kb

NODES = 6000
CLUSTERS = 16
REPEATS = 2

#: Timed propagation sweeps.  No COLLECT here: a full-KB collect is the
#: same Python loop on both backends and would dilute the comparison.
SWEEPS = (
    """
    SEARCH-NODE thing b0
    PROPAGATE b0 b1 chain(inverse:is-a)
    """,
    """
    SEARCH-NODE thing m0 0.0
    PROPAGATE m0 m1 chain(inverse:is-a) add-weight
    """,
    """
    SEARCH-NODE c1 m2 0.0
    PROPAGATE m2 m3 chain(inverse:is-a) count-hops
    """,
)

#: Run once after the clock stops; its results enter the fingerprint.
COLLECT = """
COLLECT-NODE b1
COLLECT-MARKER m1
COLLECT-NODE m3
"""


def fingerprint(engine, results):
    """sha256 of final marker state and every record: equal across
    backends iff they executed equivalently."""
    digest = hashlib.sha256()
    for tables in engine.state.clusters:
        digest.update(tables.status.snapshot().tobytes())
        digest.update(tables.node_table.value.tobytes())
        digest.update(tables.node_table.origin.tobytes())
    for result in results:
        for record in result.records:
            digest.update(repr((
                record.opcode,
                record.work.words, record.work.nodes, record.work.slots,
                record.work.sets, record.work.fp_ops, record.work.messages,
                record.work.links_made,
                record.alpha, record.max_hops, record.remote_messages,
                record.arrivals, record.result,
            )).encode())
    return digest.hexdigest()


def run_backend(backend, flip_status_bit=False):
    """(fingerprint, events, best sweep wall in s) on one backend."""
    network = generate_hierarchy_kb(NODES, branching=3)
    state = MachineState(
        network, CLUSTERS, "round-robin", machine_capacity=2 * NODES
    )
    engine = FunctionalEngine(network, state=state, backend=backend)
    programs = [assemble(text) for text in SWEEPS]
    engine.run(programs[0])  # warm caches outside the clock
    walls = []
    for _ in range(REPEATS):
        state.reset_markers()
        start = time.perf_counter()
        results = [engine.run(program) for program in programs]
        walls.append(time.perf_counter() - start)
    events = sum(
        record.arrivals for result in results for record in result.records
    )
    results.append(engine.run(assemble(COLLECT)))
    if flip_status_bit:
        status = state.clusters[0].status
        if status.test(0, 0):
            status.clear(0, 0)
        else:
            status.set(0, 0)
    return fingerprint(engine, results), events, min(walls)


@pytest.fixture(scope="module")
def runs():
    return {
        backend: run_backend(backend)
        for backend in ("python", "vectorized")
    }


def test_backends_equivalent(runs):
    python_digest, python_events, _ = runs["python"]
    vector_digest, vector_events, _ = runs["vectorized"]
    assert python_events > 0
    assert vector_events == python_events
    assert vector_digest == python_digest


def test_vectorized_speedup(runs):
    python_wall = runs["python"][2]
    vector_wall = runs["vectorized"][2]
    assert python_wall / vector_wall >= 3.0


def test_flipped_status_bit_breaks_equivalence(runs):
    flipped_digest, _, _ = run_backend("vectorized", flip_status_bit=True)
    assert flipped_digest != runs["python"][0]
