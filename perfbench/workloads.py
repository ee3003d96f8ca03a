"""The benchmark's four workloads.

Each workload builds every input from the workload seed in ``setup``
(KB generation, machine/host/fleet construction, program assembly and
a warm-up) and then runs *passes*.  A pass is a fixed list of units,
each timed from outside with the host clock.  A pass's inputs are the
same every time it runs, so the digests of its simulated outputs must
repeat exactly from pass to pass and, for :data:`DEFAULT_SEED`, match
the references committed beside this file.

``inherit``
    Propagation-bound: inheritance, subtree and property-lookup queries
    on a 21,845-node hierarchy over 32 clusters, some on a machine with
    a fixed fault pattern; every query also runs on the CM-2
    ``SimdMachine`` and the collected sets must match.  Unit = one query
    on both machines.
``nlu-parse``
    Instruction-bound: ``MemoryBasedParser`` over the MUC-4 sentences
    and the newswire passage on a semantically partitioned domain KB,
    on the 16-cluster machine and the uniprocessor ``SerialMachine``.
    Unit = one sentence parsed on one machine.
``serve``
    Host/fleet/DES-kernel-bound: open-loop query streams on the
    simulated clock through ``ServingHost`` (overload shape) and
    ``FleetRouter`` (regional-outage shape), with a fixed ad-hoc share
    that misses the nested-run cache.  Unit = one stream served; each
    stream's host or router is built, and its template cache filled,
    before the pass.
``serve-observed``
    The ``serve`` streams with tracer, metrics and telemetry sink
    attached, each ending in Chrome export and the live monitor; every
    per-query outcome must equal the unobserved run's.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Seed whose output digests are committed in ``references.json``.
DEFAULT_SEED = 1

# -- inherit ------------------------------------------------------------
#: A complete 4-ary tree of depth 7: every subtree rooted at one depth
#: has the same size, so the seed changes which nodes a query touches
#: but not how much work it is.
INHERIT_NODES = 21_845
INHERIT_BRANCHING = 4
INHERIT_DEPTH = 7
INHERIT_CLUSTERS = 32
#: (kind, count per pass, root depth, on the faulty machine): 100
#: distinct queries, so the item percentiles rest on unit minima, none
#: longer than a few tenths of a second.
INHERIT_MIX: Tuple[Tuple[str, int, int, bool], ...] = (
    ("inherit", 3, 2, False),
    ("subtree", 6, 2, False),
    ("subtree", 26, 3, False),
    ("lookup", 40, INHERIT_DEPTH, False),
    ("subtree-faulty", 5, 2, True),
    ("subtree-faulty", 20, 3, True),
)

# -- nlu-parse ------------------------------------------------------------
NLU_NODES = 2_000

# -- serve / serve-observed ---------------------------------------------------
#: Share of every stream's queries sent untemplated, so each one runs
#: the nested machine instead of hitting the per-template cache.
ADHOC_SHARE = 0.01
HOST_NODES = 240
HOST_QUERIES = 600
HOST_STREAMS = 4
FLEET_NODES = 240
#: The `fleetchaos` experiment's stream: 220 queries over its outage,
#: repair and gray-region timeline.
FLEET_QUERIES = 220
#: More fleet streams than host streams keeps the median stream inside
#: the fleet population and the p90 inside the host one.
FLEET_STREAMS = 8
#: Offered load as a multiple of the host's sustainable rate.
HOST_LOAD = 2.0


@dataclass
class Unit:
    """One piece of a pass, timed from outside."""

    label: str
    #: Items the unit completes: queries or sentence parses.
    items: int
    seconds: float = 0.0
    output: Any = None
    #: Traceback when the unit raised.
    error: Optional[str] = None


@dataclass
class Verdict:
    """The check of one unit's simulated output."""

    digest: str
    #: Items whose output failed a differential check.
    failed: int = 0


def timed(label: str, items: int, fn: Callable, *args: Any) -> Unit:
    """Run ``fn(*args)`` as one unit; an exception fails the unit."""
    start = time.perf_counter()
    try:
        output = fn(*args)
    except Exception:  # a raising unit is a failed unit, not a crash
        return Unit(label, items, time.perf_counter() - start,
                    error=traceback.format_exc(limit=4))
    return Unit(label, items, time.perf_counter() - start, output)


def sha256(value: Any) -> str:
    """Digest of a JSON-able value (non-JSON leaves go through repr)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One named workload: set-up, passes and the output check."""

    name = ""
    #: What one unit timed from outside is, in the plural.
    unit = ""
    #: Host and fleet serve with observers attached.
    observed = False

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def prepare(self, state: Any) -> Any:
        """Construction a pass needs before its timed units: set-up work
        that a pass cannot reuse, so it is redone, untimed, per pass."""
        return None

    def run_pass(self, state: Any, prepared: Any) -> List[Unit]:
        raise NotImplementedError

    def check(self, state: Any, unit: Unit) -> Verdict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# inherit
# ----------------------------------------------------------------------
def depth_range(depth: int, branching: int = INHERIT_BRANCHING) -> range:
    """Node indices at ``depth`` of a breadth-first complete tree."""
    first = (branching ** depth - 1) // (branching - 1)
    return range(first, first + branching ** depth)


def inherit_queries(seed: int) -> List[Tuple[str, str, Any, bool]]:
    """The seeded query list of one pass: (label, kind, program, faulty)."""
    from repro.apps.inheritance import (
        inheritance_program,
        property_lookup_program,
    )
    from repro.isa import assemble

    rng = random.Random(f"{seed}/inherit")
    picks: List[Tuple[str, str, bool]] = []
    for kind, count, depth, faulty in INHERIT_MIX:
        for _ in range(count):
            picks.append((kind, f"c{rng.choice(depth_range(depth))}",
                          faulty))
    rng.shuffle(picks)
    queries = []
    for index, (kind, node, faulty) in enumerate(picks):
        if kind == "inherit":
            program = inheritance_program(root=node, num_properties=1)
        elif kind == "lookup":
            program = property_lookup_program(node, f"attr{rng.randrange(4)}")
        else:
            program = assemble(
                f"SEARCH-NODE {node} b0\n"
                "PROPAGATE b0 b1 chain(inverse:is-a)\n"
                "COLLECT-NODE b1\n"
            )
        queries.append((f"{index:02d}-{kind}-{node}", kind, program, faulty))
    return queries


@dataclass
class InheritState:
    clean: Any
    faulty: Any
    simd: Any
    queries: List[Tuple[str, str, Any, bool]]


class Inherit(Workload):
    name = "inherit"
    unit = "queries"

    def setup(self, seed: int) -> InheritState:
        from repro.baselines.simd import SimdMachine
        from repro.machine import MachineConfig, SnapMachine
        from repro.machine.faults import FaultConfig
        from repro.network import generator

        network = generator.generate_hierarchy_kb(
            INHERIT_NODES, branching=INHERIT_BRANCHING, seed=seed
        )
        config = MachineConfig(num_clusters=INHERIT_CLUSTERS,
                               mus_per_cluster=(3, 2))
        # The bench `faults` lane's pattern: offline clusters, lost MUs,
        # dead links and transfer corruption, all recovered by reroute,
        # retry and remapping, so answers stay exact.
        faults = FaultConfig(
            seed=11,
            failed_cluster_fraction=0.125,
            mu_loss_prob=0.1,
            link_fail_prob=0.15,
            transfer_corrupt_prob=0.08,
            scp_timeout_prob=0.02,
        )
        state = InheritState(
            clean=SnapMachine(network, config),
            faulty=SnapMachine(network, replace(config, faults=faults)),
            simd=SimdMachine(network),
            queries=inherit_queries(seed),
        )
        # Warm-up: one query of each kind but the heaviest, which runs
        # the same code paths as a subtree query, only longer.
        warmed = {"inherit"}
        for _label, kind, program, faulty in state.queries:
            if kind not in warmed:
                warmed.add(kind)
                self._query(state, program, faulty)
        return state

    def run_pass(self, state: InheritState, prepared: None) -> List[Unit]:
        return [
            timed(label, 1, self._query, state, program, faulty)
            for label, _kind, program, faulty in state.queries
        ]

    @staticmethod
    def _query(state: InheritState, program: Any, faulty: bool):
        machine = state.faulty if faulty else state.clean
        machine.reset_markers()
        report = machine.run(program)
        state.simd.state.reset_markers()
        return report, state.simd.run(program)

    def check(self, state: InheritState, unit: Unit) -> Verdict:
        report, golden = unit.output
        return Verdict(
            digest=sha256(report.to_json()),
            failed=int(report.results() != golden.results()),
        )


# ----------------------------------------------------------------------
# nlu-parse
# ----------------------------------------------------------------------
def nlu_sentences(seed: int) -> List[Tuple[str, str]]:
    """Every corpus sentence once, in a seeded order: (label, text)."""
    from repro.apps.nlu import MUC4_SENTENCES
    from repro.apps.nlu.corpus import NEWSWIRE_PASSAGE

    corpus = list(MUC4_SENTENCES) + [
        (f"N{i + 1}", text) for i, text in enumerate(NEWSWIRE_PASSAGE)
    ]
    random.Random(f"{seed}/sentences").shuffle(corpus)
    return corpus


def parse_fields(result: Any) -> Dict[str, Any]:
    """The simulated fields of a ``ParseResult``."""
    return {
        "winner": result.winner,
        "cost": result.cost,
        "candidates": result.candidates,
        "bindings": result.bindings,
        "binding_details": result.binding_details,
        "auxiliaries": result.auxiliaries,
        "oov": result.oov,
        "pp_time_us": result.pp_time_us,
        "mb_time_us": result.mb_time_us,
        "segment_times_us": result.segment_times_us,
        "instruction_count": result.instruction_count,
        "propagate_count": result.propagate_count,
        "propagation_events": result.propagation_events,
        "category_counts": result.category_counts,
        "category_time_us": result.category_time_us,
    }


@dataclass
class NluState:
    kb: Any
    sentences: List[Tuple[str, str]]


class NluParse(Workload):
    name = "nlu-parse"
    unit = "sentence parses"

    def setup(self, seed: int) -> NluState:
        from repro.apps.nlu import kbgen

        state = NluState(
            kb=kbgen.build_domain_kb(total_nodes=NLU_NODES, seed=seed),
            sentences=nlu_sentences(seed),
        )
        for parser in self._parsers(state):
            parser.parse(state.sentences[0][1])
        return state

    @staticmethod
    def _parsers(state: NluState):
        from repro.apps.nlu.parser import MemoryBasedParser
        from repro.baselines.serial import SerialMachine
        from repro.experiments.common import nlu_config
        from repro.machine import SnapMachine

        network = state.kb.network
        return (
            MemoryBasedParser(SnapMachine(network, nlu_config()), state.kb),
            MemoryBasedParser(SerialMachine(network), state.kb),
        )

    def prepare(self, state: NluState):
        # Parsing creates binding nodes that stay in machine state, so
        # each pass parses on freshly loaded machines to repeat exactly.
        return self._parsers(state)

    def run_pass(self, state: NluState, prepared) -> List[Unit]:
        return [
            timed(f"{label}-{machine}", 1, parser.parse, text)
            for parser, machine in zip(prepared, ("snap", "serial"))
            for label, text in state.sentences
        ]

    def check(self, state: NluState, unit: Unit) -> Verdict:
        return Verdict(digest=sha256(parse_fields(unit.output)))


# ----------------------------------------------------------------------
# serve / serve-observed
# ----------------------------------------------------------------------
def with_adhoc(queries: List[Any], answered: Set[int],
               seed: str) -> List[Any]:
    """The stream with exactly ``ADHOC_SHARE`` of its queries untemplated.

    They are drawn by seed from the ``answered`` query ids, taking the
    templates in turn, so every ad-hoc query really runs the nested
    machine and each seed leaks the same machine work into the stream.
    """
    rng = random.Random(seed)
    pools: Dict[str, List[int]] = {}
    for query in queries:
        if query.query_id in answered:
            pools.setdefault(query.template, []).append(query.query_id)
    turns = [rng.sample(ids, len(ids)) for _name, ids in sorted(pools.items())]
    count = round(ADHOC_SHARE * len(queries))
    chosen: Set[int] = set()
    while len(chosen) < count:
        if not any(turns):
            raise ValueError(f"only {len(chosen)} answered queries for "
                             f"{count} ad-hoc ones")
        for pool in turns:
            if pool and len(chosen) < count:
                chosen.add(pool.pop())
    return [replace(q, template=None) if q.query_id in chosen else q
            for q in queries]


@dataclass
class ServeState:
    host_network: Any
    host_config: Any
    mean_service_us: float
    fleet_network: Any
    fleet_config: Any
    gray_off_us: float
    #: (label, "host" | "fleet", queries)
    streams: List[Tuple[str, str, List[Any]]] = field(default_factory=list)
    #: Per-query outcome digests of an unobserved pass, by stream label.
    reference: Dict[str, List[str]] = field(default_factory=dict)


def serve_streams(seed: int, host_rate_per_us: float, host_deadline_us: float,
                  fleet_gap_us: float, fleet_deadline_us: float
                  ) -> List[Tuple[str, str, List[Any]]]:
    """The seeded host and fleet arrival streams of one pass, all
    templated."""
    from repro.experiments.fleetchaos import build_fleet_queries
    from repro.experiments.overload import build_queries

    return [
        (f"host{i}", "host",
         build_queries(HOST_QUERIES, host_rate_per_us, host_deadline_us,
                       seed=f"{seed}/host{i}"))
        for i in range(HOST_STREAMS)
    ] + [
        (f"fleet{i}", "fleet",
         build_fleet_queries(FLEET_QUERIES, fleet_gap_us, fleet_deadline_us,
                             seed=f"{seed}/fleet{i}"))
        for i in range(FLEET_STREAMS)
    ]


def outcome_digests(report: Any) -> List[str]:
    return [sha256([o.as_dict(), o.results]) for o in report.outcomes]


class Serve(Workload):
    name = "serve"
    unit = "streams"

    def setup(self, seed: int) -> ServeState:
        from repro.experiments import fleetchaos, overload
        from repro.host import HostConfig
        from repro.network import generator

        host_network = generator.generate_hierarchy_kb(
            HOST_NODES, branching=3, seed=seed)
        # The `overload` experiment's configuration, one faulty replica.
        base = HostConfig(
            num_replicas=4, clusters_per_replica=4, mus_per_cluster=2,
            queue_capacity=8, shed_policy="reject-newest", max_attempts=2,
            breaker_failure_threshold=2, breaker_cooldown_us=10_000.0,
            faulty_replica_fraction=0.25, fault_seed=3,
        )
        mean_service, p99 = overload.uncontended_profile(host_network, base)
        _, fleet_config, _, profile = fleetchaos.build_scenario(fast=True)
        state = ServeState(
            host_network=host_network,
            host_config=replace(base, hedge_after_us=0.75 * p99),
            mean_service_us=mean_service,
            fleet_network=generator.generate_hierarchy_kb(
                FLEET_NODES, branching=3, seed=seed),
            fleet_config=fleet_config,
            gray_off_us=profile["gray_off_us"],
        )
        templated = serve_streams(
            seed,
            host_rate_per_us=HOST_LOAD * base.num_replicas / mean_service,
            host_deadline_us=2.5 * p99,
            fleet_gap_us=profile["mean_gap_us"],
            fleet_deadline_us=profile["deadline_us"],
        )
        # Warm-up: every stream served unobserved twice.  The templated
        # serving shows which queries get answered, to draw the ad-hoc
        # share from; the second serving's per-query outcomes are the
        # reference every pass (observed or not) must reproduce.
        for label, kind, queries in templated:
            answered = {o.query_id
                        for o in self._serve_once(state, kind, queries).outcomes
                        if o.results}
            queries = with_adhoc(queries, answered, f"{seed}/{label}/adhoc")
            state.reference[label] = outcome_digests(
                self._serve_once(state, kind, queries))
            state.streams.append((label, kind, queries))
        return state

    def _serve_once(self, state: ServeState, kind: str, queries: List[Any]):
        server, _ = self._build(state, kind, queries, observed=False)
        return self._serve(state, kind, server, None, queries)[0]

    def prepare(self, state: ServeState):
        # A host or router serves exactly one stream.
        return [self._build(state, kind, queries, self.observed)
                for _label, kind, queries in state.streams]

    def run_pass(self, state: ServeState, prepared) -> List[Unit]:
        return [
            timed(label, len(queries), self._serve, state, kind, server,
                  observers, queries)
            for (label, kind, queries), (server, observers)
            in zip(state.streams, prepared)
        ]

    @staticmethod
    def _build(state: ServeState, kind: str, queries: List[Any],
               observed: bool):
        """A host or router for one stream, its nested-run cache filled
        with the stream's templates, and its observers."""
        from repro.fleet import FleetRouter
        from repro.host import Query, ServingHost
        from repro.obs import MetricsRegistry, TelemetrySink, Tracer

        observers = None
        options = {}
        if observed:
            observers = (Tracer(), MetricsRegistry(), TelemetrySink())
            options = dict(zip(("tracer", "metrics", "sink"), observers))
        templates = {q.template: q.program for q in queries if q.template}
        if kind == "host":
            server = ServingHost(state.host_network, state.host_config,
                                 **options)
            for replica in server.array.replicas:
                for name, program in templates.items():
                    server.array.execute(
                        replica, Query(-1, program, template=name))
        else:
            server = FleetRouter(state.fleet_network, state.fleet_config,
                                 **options)
            for executor in server.executors:
                for name, program in templates.items():
                    executor.execute(Query(-1, program, template=name))
        return server, observers

    @staticmethod
    def _serve(state: ServeState, kind: str, server: Any, observers: Any,
               queries: List[Any]):
        from repro.obs.live import monitor
        from repro.obs.live.score import truth_from_replica_timeline

        report = server.serve(queries)
        if observers is None:
            return (report,)
        tracer, metrics, sink = observers
        document = tracer.to_chrome_json(metrics)
        horizon = max(report.total_time_us,
                      max((e.ts_us for e in sink.events), default=0.0))
        if kind == "host":
            spec = monitor.chaos_spec(state.mean_service_us)
            truth = truth_from_replica_timeline(
                state.host_config.replica_timeline, horizon_us=horizon)
        else:
            horizon = max(horizon, state.gray_off_us)
            spec = monitor.fleetchaos_spec()
            truth = state.fleet_config.region_schedule.fault_windows()
        run = monitor.run_pipeline(spec, sink.ordered(), truth,
                                   horizon_us=horizon)
        return (report, len(document["traceEvents"]),
                monitor.monitor_snapshot(run))

    def check(self, state: ServeState, unit: Unit) -> Verdict:
        report = unit.output[0]
        digests = outcome_digests(report)
        reference = state.reference[unit.label]
        failed = sum(a != b for a, b in zip(digests, reference))
        failed += abs(len(digests) - len(reference))
        # The fleet marks every answered leg against the shard's
        # reference answer; the host accounts for every query once.
        failed += sum(1 for o in report.outcomes
                      if not getattr(o, "correct", True))
        if not report.accounted():
            failed = unit.items
        return Verdict(digest=sha256([digests, unit.output[1:]]),
                       failed=min(failed, unit.items))


class ServeObserved(Serve):
    name = "serve-observed"
    observed = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Inherit(), NluParse(), Serve(), ServeObserved())
}
