"""Wall-clock benchmark harness for the simulator hot paths.

Measures **events per second of wall-clock time** — simulator events
or marker deliveries divided by elapsed host time — on workloads
chosen to stress the hot paths of the system:

``propagate``
    Fan-out-heavy marker propagation.  With no ``--backend`` this is
    the historical DES lane (inheritance sweeps through the 16-cluster
    machine simulator).  With ``--backend`` it becomes the functional
    engine on a large hierarchy KB (60 K nodes full, ~6 K smoke) run
    through the selected propagation backend — the lane the vectorized
    backend targets.
``propagate-vec``
    The large-KB functional lane on **both** backends back to back:
    asserts bit-for-bit equivalence of final marker state, collect
    results, and work reports via a state fingerprint, then reports
    the vectorized/python speedup.
``faults``
    DES propagation under an aggressive fault pattern (offline
    clusters, dead links, transfer corruption): every message takes
    the ``route_avoiding`` path and retries/watchdogs exercise event
    cancellation.
``overload``
    The serving host under sustained overload: thousands of queries
    with deadline watchdogs, hedged retries, and admission shedding.
``dispatch``
    Instruction-dispatch micro-lane: a long stream of cheap non-
    propagate instructions through ``FunctionalEngine.execute``,
    guarding the table-driven dispatch against regressions back to
    per-call isinstance scans.

Because the simulator is deterministic, the event counts of a workload
never change between runs or code versions (the byte-identical-reports
guarantee); only the wall-clock denominator moves.  That makes
``events_per_sec`` a directly comparable trajectory across PRs —
``python -m repro bench`` writes the latest snapshot to
``BENCH_PERF.json`` and appends one record per lane (per-run walls,
environment fingerprint) to ``BENCH_HISTORY.jsonl``, the trajectory
``python -m repro perf check`` gates on.  Lanes time each repeat
separately, so every row carries ``wall_runs`` plus
min/median/stdev; a lane is tagged ``"unreliable": true`` when its
wall is below :data:`MIN_RELIABLE_WALL_S` (coarse clocks, tiny smoke
sizes) *or* its per-run walls scatter beyond
:data:`MAX_RELIABLE_REL_STDEV` — either way the rate must not
masquerade as a real measurement.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple


class BackendDivergenceError(RuntimeError):
    """The python and vectorized backends disagreed on a bench lane.

    Carries the partially-built lane ``record`` (with
    ``"equivalent": false``) so callers — the CLI, CI — can render
    what diverged instead of a bare traceback.
    """

    def __init__(self, message: str, record: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.record = record


def _start_clock() -> float:
    """Collect garbage left by setup/earlier workloads, then start
    timing.  Without this, measured wall time varies with workload run
    order (a prior workload's garbage gets collected inside the next
    one's timed region)."""
    gc.collect()
    return time.perf_counter()


#: Default output path (repo-root trajectory file, uploaded by CI).
DEFAULT_OUT = "BENCH_PERF.json"

#: Workload ids in report order.
WORKLOADS = ("propagate", "propagate-vec", "faults", "overload", "dispatch")

#: Backend choices accepted by ``--backend``.
BACKEND_CHOICES = ("python", "vectorized", "both")

#: Below this wall time the events/sec quotient is clock noise, not a
#: measurement; such lanes are flagged ``"unreliable": true``.
MIN_RELIABLE_WALL_S = 1e-4

#: A lane whose per-run walls scatter beyond this relative stdev
#: (stdev / median, ≥3 runs) is flagged unreliable: the machine was
#: too noisy for the rate to be a measurement.
MAX_RELIABLE_REL_STDEV = 0.25

#: Default history path for the appended per-lane trajectory.
DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"

#: Keys that vary run to run and must never enter a drift snapshot.
_NONDETERMINISTIC_KEYS = frozenset(
    (
        "wall_s", "events_per_sec", "unreliable", "speedup",
        "wall_runs", "wall_min_s", "wall_median_s", "wall_stdev_s",
        "environment",
    )
)


def _wall_stats(walls: List[float]) -> Dict[str, Any]:
    """Aggregate per-run wall times into a lane row's timing fields."""
    stats: Dict[str, Any] = {
        "wall_s": sum(walls),
        "wall_runs": list(walls),
    }
    if walls:
        stats["wall_min_s"] = min(walls)
        stats["wall_median_s"] = statistics.median(walls)
        stats["wall_stdev_s"] = (
            statistics.stdev(walls) if len(walls) >= 2 else 0.0
        )
    return stats


def _finalize_rate(record: Dict[str, Any]) -> Dict[str, Any]:
    """Attach events/sec and the unreliable-wall flag to a lane row."""
    wall = record.get("wall_s", 0.0)
    record["events_per_sec"] = (
        record["events"] / wall if wall > 0 else 0.0
    )
    if wall < MIN_RELIABLE_WALL_S:
        record["unreliable"] = True
    walls = record.get("wall_runs") or []
    median = record.get("wall_median_s", 0.0)
    if len(walls) >= 3 and median > 0:
        if record.get("wall_stdev_s", 0.0) / median > MAX_RELIABLE_REL_STDEV:
            record["unreliable"] = True
    return record


def _scrub_nondeterministic(value: Any) -> Any:
    """Recursively drop timing-derived keys (nested lanes included)."""
    if isinstance(value, dict):
        return {
            key: _scrub_nondeterministic(val)
            for key, val in value.items()
            if key not in _NONDETERMINISTIC_KEYS
        }
    return value


def propagate_setup(faulty: bool = False):
    """(machine, programs) of the ``propagate``/``faults`` workloads.

    A 360-node hierarchy on a 16-cluster machine, healthy or under an
    aggressive fault pattern (offline clusters, dead links, transfer
    corruption), and the ``overload`` experiment's three inheritance
    programs.  The bench lanes and the ``trace`` captures both run it.
    """
    from .experiments.overload import TEMPLATES
    from .isa import assemble
    from .machine import MachineConfig, SnapMachine, snap1_16cluster
    from .machine.faults import FaultConfig
    from .network.generator import generate_hierarchy_kb

    network = generate_hierarchy_kb(360, branching=3)
    if faulty:
        config = MachineConfig(
            num_clusters=16,
            mus_per_cluster=3,
            faults=FaultConfig(
                seed=11,
                failed_cluster_fraction=0.125,
                mu_loss_prob=0.1,
                link_fail_prob=0.15,
                transfer_corrupt_prob=0.08,
                scp_timeout_prob=0.02,
            ),
        )
    else:
        config = snap1_16cluster()
    machine = SnapMachine(network, config)
    return machine, [assemble(text) for _, text in TEMPLATES]


def _bench_machine(smoke: bool, faulty: bool) -> Dict[str, Any]:
    """Time repeated sweeps of the propagate programs on the DES."""
    repeats = 4 if smoke else 20
    machine, programs = propagate_setup(faulty)
    machine.run(programs[0])  # warm allocator/tables outside the clock
    events = 0
    walls: List[float] = []
    for _ in range(repeats):
        start = _start_clock()
        for program in programs:
            machine.reset_markers()
            events += machine.run(program).events_processed
        walls.append(time.perf_counter() - start)
    return {
        "events": events,
        **_wall_stats(walls),
        "runs": repeats * len(programs),
    }


# ----------------------------------------------------------------------
# Functional-engine large-KB lane (the backend comparison surface)
# ----------------------------------------------------------------------
def _functional_programs():
    """Timed propagation sweeps.  Deliberately no COLLECT here: a
    full-KB collect is the same pure-Python loop on every backend and
    would dilute the propagation measurement; collects run once after
    the clock stops (see ``_collect_program``) so their results still
    feed the equivalence fingerprint."""
    from .isa import assemble

    texts = (
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
    return [assemble(text) for text in texts]


def _collect_program():
    from .isa import assemble

    return assemble(
        """
        COLLECT-NODE b1
        COLLECT-MARKER m1
        COLLECT-NODE m3
        """
    )


def _state_fingerprint(engine, results) -> str:
    """Digest of final marker state + all reports: byte-identical
    across backends iff they executed equivalently."""
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


def _functional_propagate(
    smoke: bool, backend: str, nodes: int
) -> Tuple[Dict[str, Any], str]:
    """Big-KB propagation through one backend; returns (row, digest)."""
    from .core import FunctionalEngine
    from .core.state import MachineState
    from .network.generator import generate_hierarchy_kb

    repeats = 2 if smoke else 3
    num_clusters = 16
    network = generate_hierarchy_kb(nodes, branching=3)
    state = MachineState(
        network, num_clusters, "round-robin", machine_capacity=2 * nodes
    )
    engine = FunctionalEngine(network, state=state, backend=backend)
    programs = _functional_programs()
    engine.run(programs[0])  # warm caches outside the clock
    state.reset_markers()
    events = 0
    results = []
    walls: List[float] = []
    for _ in range(repeats):
        start = _start_clock()
        state.reset_markers()
        results = [engine.run(program) for program in programs]
        walls.append(time.perf_counter() - start)
        events += sum(
            record.arrivals
            for result in results
            for record in result.records
        )
    # Collect results enter the fingerprint but not the clock (a
    # full-KB collect is backend-independent Python).
    results.append(engine.run(_collect_program()))
    row = {
        "events": events,
        **_wall_stats(walls),
        "runs": repeats * len(programs),
        "nodes": nodes,
        "clusters": num_clusters,
        "backend": backend,
    }
    return row, _state_fingerprint(engine, results)


def _lane_nodes(smoke: bool) -> int:
    return 6000 if smoke else 60000


def bench_propagate(
    smoke: bool = False, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Fan-out-heavy propagation.

    Default (no backend): the DES machine-simulator lane.  With a
    backend: the functional engine on a large hierarchy KB, the
    surface where propagation backends compete.
    """
    if backend is not None and backend != "both":
        row, _ = _functional_propagate(smoke, backend, _lane_nodes(smoke))
        return row
    if backend == "both":
        return bench_propagate_vec(smoke, backend="both")

    return _bench_machine(smoke, faulty=False)


def bench_propagate_vec(
    smoke: bool = False, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Backend comparison lane: both backends on the same large KB,
    equivalence pinned by state fingerprint, speedup reported."""
    choice = backend or "both"
    names = (
        ("python", "vectorized") if choice == "both" else (choice,)
    )
    nodes = _lane_nodes(smoke)
    rows: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    for name in names:
        row, digest = _functional_propagate(smoke, name, nodes)
        rows[name] = _finalize_rate(row)
        digests[name] = digest
    record: Dict[str, Any] = {"nodes": nodes, "backends": rows}
    primary = rows[names[-1]]
    record["events"] = primary["events"]
    record["runs"] = primary["runs"]
    for key in ("wall_s", "wall_runs", "wall_min_s", "wall_median_s",
                "wall_stdev_s"):
        if key in primary:
            record[key] = primary[key]
    if len(names) == 2:
        record["equivalent"] = (
            digests["python"] == digests["vectorized"]
        )
        if not record["equivalent"]:
            raise BackendDivergenceError(
                "backend divergence: python and vectorized backends "
                "produced different marker state or reports on the "
                "propagate-vec workload",
                record=record,
            )
        python_rate = rows["python"]["events_per_sec"]
        vec_rate = rows["vectorized"]["events_per_sec"]
        if python_rate > 0 and vec_rate > 0:
            record["speedup"] = vec_rate / python_rate
    return record


def bench_faults(
    smoke: bool = False, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Propagation under faults: reroutes, retries, and watchdogs."""
    return _bench_machine(smoke, faulty=True)


def bench_overload(
    smoke: bool = False, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Cancellation-heavy serving: watchdogs, hedges, shedding.

    Long deadlines relative to service time mean nearly every query's
    watchdog is scheduled far in the future and then cancelled on
    completion — the exact pattern that used to grow the event heap
    without bound under sustained traffic.
    """
    from dataclasses import replace

    from .experiments.overload import (
        TEMPLATES, build_queries, uncontended_profile,
    )
    from .host import HostConfig, Query, ServingHost
    from .isa import assemble
    from .network.generator import generate_hierarchy_kb

    count = 1500 if smoke else 20000
    network = generate_hierarchy_kb(240, branching=3)
    config = HostConfig(
        num_replicas=4,
        clusters_per_replica=4,
        mus_per_cluster=2,
        queue_capacity=16,
        shed_policy="reject-newest",
        max_attempts=2,
        fault_seed=3,
    )
    mean_service, p99 = uncontended_profile(network, config)
    sustainable = config.num_replicas / mean_service
    config = replace(config, hedge_after_us=0.9 * p99)
    # Deadlines 200x the p99: watchdogs are armed far out and almost
    # always cancelled, so dead entries dominate a naive event heap.
    queries = build_queries(count, 2.0 * sustainable, 200.0 * p99)
    host = ServingHost(network, config)
    # Pre-warm the nested-run cache so the clock sees only the serving
    # loop + DES kernel, not the (cached-once) machine simulations.
    for name, text in TEMPLATES:
        program = assemble(text)
        for replica in host.array.replicas:
            host.array.execute(
                replica, Query(query_id=-1, program=program, template=name)
            )
    start = _start_clock()
    report = host.serve(queries)
    wall = time.perf_counter() - start
    # One continuous serving run — the lane is a single measurement,
    # so the per-run wall list has one entry.
    return {
        "events": host.sim.events_processed,
        **_wall_stats([wall]),
        "queries": count,
        "served": report.served,
        "shed": report.shed,
    }


def bench_dispatch(
    smoke: bool = False, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Instruction-dispatch micro-lane.

    Streams cheap marker-logic instructions through
    ``FunctionalEngine.execute`` on an 8-cluster KB: per-instruction
    work is a handful of word-wise numpy ops, so throughput here is
    dominated by dispatch overhead — the path that used to rebuild
    and linearly scan the primitive tables on every call.
    """
    from .core import FunctionalEngine
    from .isa import assemble
    from .network.generator import generate_hierarchy_kb

    repeats = 600 if smoke else 6000
    network = generate_hierarchy_kb(600, branching=3)
    engine = FunctionalEngine(
        network,
        num_clusters=8,
        backend=None if backend in (None, "both") else backend,
    )
    program = assemble(
        """
        SET-MARKER b0
        AND-MARKER b0 b1 b2
        OR-MARKER b0 b2 b3
        NOT-MARKER b3 b4
        CLEAR-MARKER b0
        """
    )
    instructions = list(program)
    engine.run(program)  # warm tables outside the clock
    events = 0
    walls: List[float] = []
    # Individual repeats are microseconds; time chunks of ~a tenth of
    # the stream so per-run walls are measurements, not clock reads.
    chunk = max(1, repeats // 10)
    done = 0
    while done < repeats:
        batch = min(chunk, repeats - done)
        start = _start_clock()
        for _ in range(batch):
            for instruction in instructions:
                engine.execute(instruction)
        walls.append(time.perf_counter() - start)
        events += batch * len(instructions)
        done += batch
    return {
        "events": events,
        **_wall_stats(walls),
        "runs": repeats,
        "instructions": len(instructions),
    }


_RUNNERS = {
    "propagate": bench_propagate,
    "propagate-vec": bench_propagate_vec,
    "faults": bench_faults,
    "overload": bench_overload,
    "dispatch": bench_dispatch,
}


def run_bench(
    workloads: Optional[List[str]] = None,
    smoke: bool = False,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the selected workloads; return the trajectory record."""
    selected = list(workloads) if workloads else list(WORKLOADS)
    unknown = [w for w in selected if w not in _RUNNERS]
    if unknown:
        raise KeyError(
            f"unknown workload(s) {unknown}; available: {list(WORKLOADS)}"
        )
    results: Dict[str, Any] = {}
    for name in selected:
        record = _RUNNERS[name](smoke=smoke, backend=backend)
        _finalize_rate(record)
        results[name] = record
    from .obs.perf.history import environment_fingerprint

    return {
        "bench": "snap1-hot-path",
        "smoke": smoke,
        "backend": backend,
        "python": platform.python_version(),
        "environment": environment_fingerprint(backend=backend, smoke=smoke),
        "workloads": results,
    }


def _print_row(name: str, row: Dict[str, Any]) -> None:
    tag = " [unreliable]" if row.get("unreliable") else ""
    print(
        f"{name:>13}: {row['events']:>9} events in "
        f"{row['wall_s']:.2f}s wall = {row['events_per_sec']:,.0f} ev/s{tag}"
    )
    for sub_name, sub in row.get("backends", {}).items():
        _print_row(f"{name}.{sub_name}", sub)
    if "speedup" in row:
        print(f"{name:>13}: vectorized speedup {row['speedup']:.1f}x "
              f"(equivalent={row.get('equivalent')})")


def main(argv=None) -> int:
    """CLI entry point for ``python -m repro bench``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="wall-clock events/sec on the simulator hot paths",
    )
    parser.add_argument(
        "workloads", nargs="*",
        help=f"workload ids to run (default: all of {WORKLOADS})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI smoke runs",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="propagation backend for engine lanes; 'both' runs the "
             "python and vectorized backends back to back and checks "
             "equivalence (propagate/propagate-vec lanes)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--snapshot", metavar="PATH",
        help="also write the deterministic fields (events/runs/queries/"
             "served/shed — never wall time) as a drift-gate snapshot "
             "for `python -m repro analyze --compare`",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY, metavar="PATH",
        help="append one record per lane to this JSONL trajectory "
             f"(default: {DEFAULT_HISTORY}; gated by "
             "`python -m repro perf check`)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending to the bench history",
    )
    args = parser.parse_args(argv)
    try:
        record = run_bench(
            args.workloads or None, smoke=args.smoke, backend=args.backend
        )
    except BackendDivergenceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(
            "bench: the propagate-vec equivalence gate failed — the "
            "vectorized backend no longer reproduces the golden model",
            file=sys.stderr,
        )
        return 1
    if args.snapshot:
        from .obs.analyze import make_snapshot

        deterministic = _scrub_nondeterministic(record["workloads"])
        snapshot = make_snapshot(deterministic, workload="bench")
        with open(args.snapshot, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.snapshot}")
    for name, row in record["workloads"].items():
        _print_row(name, row)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if not args.no_history:
        from .obs.perf.history import append_history

        appended = append_history(record, args.history)
        print(f"appended {appended} lane record(s) to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
