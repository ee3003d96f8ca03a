"""Deterministic fault injection and recovery policies.

SNAP-1's published evaluation assumed a perfectly healthy 144-PE
array; a deployed array machine degrades — DSPs hang, multiport
memories drop transfers, ICN links fail.  This module models partial
failure as a first-class, *seed-driven* subsystem:

* **PU/CU stuck** — whole clusters offline from t=0 (the cluster's
  units never decode, execute, or forward);
* **MU server loss** — individual marker units dead, shrinking a
  cluster's marker bandwidth;
* **ICN link failure** — hypercube port-to-port links dead; routing
  must detour via an alternate digit order (or BFS) or declare the
  pair unreachable;
* **transfer corruption** — a memory-port transfer is corrupted in
  flight; detected (parity) and retried with capped exponential
  backoff under a timeout budget charged in simulated microseconds;
* **transient SCP/bus timeouts** — broadcast occupancy stretched by a
  recovery penalty.

Recovery lives in three layers: per-transfer retry
(:class:`RetryPolicy`), propagation-level checkpoint replay (the
simulator re-issues only the lost activation messages of a PROPAGATE),
and allocator-level remap (semantic-network nodes are evicted off
failed clusters onto survivors before tables are built — see
:func:`repro.network.partition.evict_clusters`).

Everything is derived from :class:`FaultConfig` through named
``random.Random`` streams, so the same seed yields a bit-identical
fault pattern and event trace, and a disabled config never draws from
any stream (the fault layer is provably zero-cost when off).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .icn import HypercubeTopology, link_key


class FaultConfigError(ValueError):
    """Raised for inconsistent fault configurations."""


#: Timeline event kinds understood by :class:`FaultInjector.apply_event`.
#: ``*-fail``/``*-repair`` pairs flip hard state; ``mu-slowdown``,
#: ``corrupt-rate``, and ``marker-drop`` are the *gray* modes — the
#: component keeps answering, just slower or silently wrong.
EVENT_KINDS = frozenset({
    "cluster-fail", "cluster-repair",
    "link-fail", "link-repair",
    "mu-fail", "mu-repair",
    "mu-slowdown", "corrupt-rate", "marker-drop",
})

#: Kinds that name a cluster.
_CLUSTER_KINDS = frozenset({
    "cluster-fail", "cluster-repair", "mu-fail", "mu-repair",
    "mu-slowdown",
})

#: Kinds whose ``value`` is a probability in [0, 1].
_PROB_KINDS = frozenset({"corrupt-rate", "marker-drop"})


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped arrival or repair on the fault timeline.

    ``time_us`` is simulated machine time.  Which operand fields are
    required depends on ``kind``:

    * ``cluster-fail`` / ``cluster-repair`` — ``cluster``;
    * ``link-fail`` / ``link-repair`` — ``link`` (an undirected
      cluster pair);
    * ``mu-fail`` — ``cluster``, optional ``value`` = MUs lost
      (default 1; the cluster always keeps at least one MU);
    * ``mu-repair`` — ``cluster``, optional ``value`` = MUs restored
      (default: back to the configured count);
    * ``mu-slowdown`` — ``cluster``, ``value`` = service multiplier
      (``>= 1``; ``1.0`` repairs the slowdown);
    * ``corrupt-rate`` / ``marker-drop`` — ``value`` = new probability
      in [0, 1] (replaces the static config rate from this instant).
    """

    time_us: float
    kind: str
    cluster: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise FaultConfigError(
                f"event time_us must be >= 0: {self.time_us}"
            )
        if self.kind not in EVENT_KINDS:
            raise FaultConfigError(
                f"unknown fault-event kind {self.kind!r}; "
                f"known: {sorted(EVENT_KINDS)}"
            )
        if self.kind in _CLUSTER_KINDS:
            if self.cluster is None or self.cluster < 0:
                raise FaultConfigError(
                    f"{self.kind} needs a cluster id >= 0: {self.cluster}"
                )
        if self.kind in ("link-fail", "link-repair"):
            if (
                self.link is None
                or len(self.link) != 2
                or any(c < 0 for c in self.link)
                or self.link[0] == self.link[1]
            ):
                raise FaultConfigError(
                    f"{self.kind} needs a (a, b) cluster pair with "
                    f"a != b and ids >= 0: {self.link}"
                )
        if self.kind == "mu-slowdown":
            if self.value is None or self.value < 1.0:
                raise FaultConfigError(
                    f"mu-slowdown needs a factor >= 1: {self.value}"
                )
        if self.kind in _PROB_KINDS:
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise FaultConfigError(
                    f"{self.kind} needs a probability in [0, 1]: "
                    f"{self.value}"
                )
        if self.kind in ("mu-fail", "mu-repair") and self.value is not None:
            if self.value < 1 or int(self.value) != self.value:
                raise FaultConfigError(
                    f"{self.kind} value must be a positive MU count: "
                    f"{self.value}"
                )


@dataclass(frozen=True)
class FaultSchedule:
    """A time-ordered sequence of :class:`FaultEvent` deliveries.

    Events are sorted by ``time_us`` at construction (stably, so
    same-instant events apply in the order given).  The empty schedule
    is the default everywhere and adds no behavior: a config whose
    only non-default field is an empty schedule stays *disabled* and
    byte-identical to the pre-timeline fault layer.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time_us))
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The no-op schedule."""
        return cls()

    def fault_windows(self) -> Tuple["FaultWindow", ...]:
        """Ground-truth injected-fault intervals, start-time ordered.

        Pairs each degradation onset with its repair: ``*-fail`` →
        matching ``*-repair`` (outage windows per cluster/link);
        ``mu-slowdown`` with factor > 1 opens a gray window that a
        factor-1.0 event closes; ``corrupt-rate``/``marker-drop``
        with probability > 0 open gray windows closed by a rate of 0.
        Unrepaired faults yield open windows (``end_us=None``).
        """
        spans: List[Tuple[float, Optional[float], str, str]] = []
        opens: Dict[str, Tuple[float, str]] = {}
        for event in self.events:
            if event.kind in ("cluster-fail", "mu-fail"):
                target = f"cluster:{event.cluster}"
                opens.setdefault(target, (event.time_us, "outage"))
            elif event.kind in ("cluster-repair", "mu-repair"):
                target = f"cluster:{event.cluster}"
                if target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
            elif event.kind in ("link-fail", "link-repair"):
                a, b = sorted(event.link)  # type: ignore[misc]
                target = f"link:{a}-{b}"
                if event.kind == "link-fail":
                    opens.setdefault(target, (event.time_us, "outage"))
                elif target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
            elif event.kind == "mu-slowdown":
                target = f"slowdown:{event.cluster}"
                if event.value and event.value > 1.0:
                    opens.setdefault(target, (event.time_us, "gray"))
                elif target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
            else:  # corrupt-rate / marker-drop
                target = event.kind
                if event.value and event.value > 0.0:
                    opens.setdefault(target, (event.time_us, "gray"))
                elif target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
        return _pair_windows(spans, opens)


@dataclass(frozen=True)
class FaultWindow:
    """One ground-truth injected-fault interval, exported for scoring.

    The schedules know *exactly* when each fault began and (if ever)
    was repaired — that exactness is what lets the live-monitoring
    layer be scored instead of merely existing: detection latency and
    alert precision/recall are measured against these windows
    (:mod:`repro.obs.live.score`), not against the monitor's own
    event stream.

    ``end_us is None`` means the fault was never repaired on the
    timeline (open through the run's horizon).  ``kind`` is
    ``outage`` (hard fail/repair pairs) or ``gray`` (slowdown /
    corruption / marker-drop spans); ``target`` names the component,
    e.g. ``region:0``, ``cluster:3``, ``link:1-2``, ``corrupt-rate``.
    """

    start_us: float
    end_us: Optional[float]
    kind: str
    target: str

    def duration_us(self, horizon_us: Optional[float] = None) -> float:
        """Window length; open windows clamp to ``horizon_us``."""
        if self.end_us is not None:
            return self.end_us - self.start_us
        if horizon_us is None:
            raise FaultConfigError(
                f"open fault window {self.target} needs a horizon"
            )
        return max(0.0, horizon_us - self.start_us)

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_us": self.start_us,
            "end_us": self.end_us,
            "kind": self.kind,
            "target": self.target,
        }


def _pair_windows(
    spans: List[Tuple[float, Optional[float], str, str]],
    opens: Dict[str, Tuple[float, str]],
) -> Tuple[FaultWindow, ...]:
    """Close out still-open spans and emit sorted windows."""
    for target, (start, kind) in opens.items():
        spans.append((start, None, kind, target))
    spans.sort(key=lambda s: (s[0], s[3]))
    return tuple(
        FaultWindow(start_us=s, end_us=e, kind=k, target=t)
        for s, e, k, t in spans
    )


#: Region-scoped timeline event kinds (fleet failure domains).
#: ``region-fail``/``region-repair`` flip a whole failure domain;
#: ``region-slowdown`` is the gray mode — every replica in the region
#: keeps answering, ``value`` times slower (``1.0`` repairs it).
REGION_EVENT_KINDS = frozenset({
    "region-fail", "region-repair", "region-slowdown",
})


@dataclass(frozen=True)
class RegionEvent:
    """One timestamped event on a *region* (a fleet failure domain).

    The machine-level :class:`FaultEvent` names clusters and links
    inside one array; a :class:`RegionEvent` names an entire failure
    domain of the serving fleet — every replica placed in ``region``
    is affected at once.  ``time_us`` is fleet (router) clock time.
    """

    time_us: float
    kind: str
    region: int
    #: ``region-slowdown`` only: service multiplier (>= 1; 1.0 repairs).
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise FaultConfigError(
                f"event time_us must be >= 0: {self.time_us}"
            )
        if self.kind not in REGION_EVENT_KINDS:
            raise FaultConfigError(
                f"unknown region-event kind {self.kind!r}; "
                f"known: {sorted(REGION_EVENT_KINDS)}"
            )
        if self.region < 0:
            raise FaultConfigError(
                f"{self.kind} needs a region id >= 0: {self.region}"
            )
        if self.kind == "region-slowdown":
            if self.value is None or self.value < 1.0:
                raise FaultConfigError(
                    f"region-slowdown needs a factor >= 1: {self.value}"
                )
        elif self.value is not None:
            raise FaultConfigError(
                f"{self.kind} takes no value: {self.value}"
            )


@dataclass(frozen=True)
class RegionSchedule:
    """A time-ordered sequence of :class:`RegionEvent` deliveries.

    Mirrors :class:`FaultSchedule`: events sort stably by ``time_us``
    at construction, and the empty schedule is the no-op default.
    """

    events: Tuple[RegionEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time_us))
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def empty(cls) -> "RegionSchedule":
        """The no-op schedule."""
        return cls()

    def regions(self) -> Tuple[int, ...]:
        """Distinct region ids the schedule touches, ascending."""
        return tuple(sorted({e.region for e in self.events}))

    def fault_windows(self) -> Tuple[FaultWindow, ...]:
        """Ground-truth injected-fault intervals, start-time ordered.

        ``region-fail`` → ``region-repair`` pairs become ``outage``
        windows; a ``region-slowdown`` with factor > 1 opens a
        ``gray`` window that a factor-1.0 event closes.  Unrepaired
        faults yield open windows (``end_us=None``).  Targets are
        ``region:<id>`` / ``slowdown:region:<id>``.
        """
        spans: List[Tuple[float, Optional[float], str, str]] = []
        opens: Dict[str, Tuple[float, str]] = {}
        for event in self.events:
            if event.kind == "region-fail":
                target = f"region:{event.region}"
                opens.setdefault(target, (event.time_us, "outage"))
            elif event.kind == "region-repair":
                target = f"region:{event.region}"
                if target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
            else:  # region-slowdown
                target = f"slowdown:region:{event.region}"
                if event.value and event.value > 1.0:
                    opens.setdefault(target, (event.time_us, "gray"))
                elif target in opens:
                    start, kind = opens.pop(target)
                    spans.append((start, event.time_us, kind, target))
        return _pair_windows(spans, opens)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for detected-corruption retries.

    A corrupted transfer is re-attempted after ``base_backoff_us``,
    doubling (``backoff_factor``) per attempt up to ``max_backoff_us``.
    Recovery stops when ``max_retries`` attempts are spent or the
    per-transfer ``timeout_budget_us`` of simulated recovery time
    elapses, whichever comes first; the transfer is then declared
    failed and handed to the next recovery layer (checkpoint replay).
    """

    max_retries: int = 4
    base_backoff_us: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_us: float = 8.0
    timeout_budget_us: float = 50.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultConfigError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        for name in ("base_backoff_us", "max_backoff_us", "timeout_budget_us"):
            value = getattr(self, name)
            if value < 0:
                raise FaultConfigError(f"{name} must be >= 0: {value}")
        if self.backoff_factor < 1.0:
            raise FaultConfigError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based), in µs."""
        return min(
            self.base_backoff_us * self.backoff_factor ** attempt,
            self.max_backoff_us,
        )


@dataclass(frozen=True)
class FaultConfig:
    """Seed-driven description of the injected fault pattern.

    All probabilities are in [0, 1].  The default instance (and
    :meth:`disabled`) injects nothing, and the simulator bypasses the
    fault layer entirely for it.
    """

    #: Root seed; every fault decision derives from it deterministically.
    seed: int = 0
    #: Fraction of clusters whose PU/CU are stuck (cluster offline).
    failed_cluster_fraction: float = 0.0
    #: Explicit failed-cluster ids (overrides the fraction when set).
    failed_clusters: Optional[Tuple[int, ...]] = None
    #: Per-MU probability of server loss (first MU of a cluster is spared
    #: so surviving clusters keep at least one marker unit).
    mu_loss_prob: float = 0.0
    #: Per-link probability of an ICN port/link failure.
    link_fail_prob: float = 0.0
    #: Per-hop probability of a detected memory-port transfer corruption.
    transfer_corrupt_prob: float = 0.0
    #: Per-delivery probability an ICN message is *silently* dropped at
    #: its destination (gray: no parity error, no retry, no replay —
    #: the answer is simply incomplete and only an integrity audit can
    #: tell).
    marker_drop_prob: float = 0.0
    #: Uniform MU service multiplier (gray slow-but-alive mode);
    #: ``1.0`` = full speed.
    mu_slowdown_factor: float = 1.0
    #: Per-broadcast probability of a transient SCP/global-bus timeout.
    scp_timeout_prob: float = 0.0
    #: Recovery penalty of one SCP/bus timeout, in µs.
    scp_timeout_penalty_us: float = 25.0
    #: Per-transfer retry policy.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Re-issue the lost work of a PROPAGATE from its marker checkpoint.
    checkpoint_recovery: bool = True
    #: Maximum checkpoint replay rounds per PROPAGATE.
    max_replay_rounds: int = 2
    #: Evict semantic-network nodes off failed clusters onto survivors.
    remap_nodes: bool = True
    #: Timed arrival/repair events delivered mid-run (see
    #: :class:`FaultSchedule`; empty = the static-only behavior).
    schedule: FaultSchedule = field(default_factory=FaultSchedule)

    def __post_init__(self) -> None:
        for name in (
            "failed_cluster_fraction", "mu_loss_prob", "link_fail_prob",
            "transfer_corrupt_prob", "marker_drop_prob",
            "scp_timeout_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultConfigError(f"{name} must be in [0, 1]: {value}")
        if self.scp_timeout_penalty_us < 0:
            raise FaultConfigError(
                "scp_timeout_penalty_us must be >= 0: "
                f"{self.scp_timeout_penalty_us}"
            )
        if self.max_replay_rounds < 0:
            raise FaultConfigError(
                f"max_replay_rounds must be >= 0: {self.max_replay_rounds}"
            )
        if self.failed_clusters is not None and any(
            c < 0 for c in self.failed_clusters
        ):
            raise FaultConfigError(
                f"failed_clusters ids must be >= 0: {self.failed_clusters}"
            )
        if self.mu_slowdown_factor < 1.0:
            raise FaultConfigError(
                "mu_slowdown_factor must be >= 1: "
                f"{self.mu_slowdown_factor}"
            )
        if not isinstance(self.schedule, FaultSchedule):
            raise FaultConfigError(
                f"schedule must be a FaultSchedule: {self.schedule!r}"
            )

    @classmethod
    def disabled(cls) -> "FaultConfig":
        """A configuration that injects nothing at all."""
        return cls()

    @property
    def enabled(self) -> bool:
        """Whether any fault can actually occur under this config."""
        return bool(
            self.failed_clusters
            or self.failed_cluster_fraction > 0
            or self.mu_loss_prob > 0
            or self.link_fail_prob > 0
            or self.transfer_corrupt_prob > 0
            or self.marker_drop_prob > 0
            or self.mu_slowdown_factor > 1.0
            or self.scp_timeout_prob > 0
            or self.schedule.events
        )


def _stream(config: FaultConfig, name: str) -> random.Random:
    """A named, seed-derived RNG stream (independent per fault type)."""
    return random.Random(f"{config.seed}/{name}")


def failed_clusters_for(
    config: FaultConfig, num_clusters: int
) -> FrozenSet[int]:
    """The deterministic set of offline clusters for a machine size.

    Shared by the allocator-level remap (at machine construction) and
    the simulator (at run time) so both agree on which clusters are
    dead.  At least one cluster always survives.  Explicit ids outside
    ``[0, num_clusters)`` are a configuration error — silently
    dropping them would realize a different pattern than the one the
    caller asked for.
    """
    if config.failed_clusters is not None:
        out_of_range = sorted(
            c for c in config.failed_clusters
            if not 0 <= c < num_clusters
        )
        if out_of_range:
            raise FaultConfigError(
                f"failed_clusters ids out of range for a "
                f"{num_clusters}-cluster machine: {out_of_range}"
            )
        bad = set(config.failed_clusters)
    else:
        count = int(round(config.failed_cluster_fraction * num_clusters))
        if count <= 0:
            return frozenset()
        bad = set(
            _stream(config, "clusters").sample(range(num_clusters), count)
        )
    if len(bad) >= num_clusters:
        bad = set(sorted(bad)[: num_clusters - 1])
    return frozenset(bad)


@dataclass
class FaultStats:
    """Counters of injected faults and recovery work for run reports."""

    clusters_failed: int = 0
    mus_lost: int = 0
    links_failed: int = 0
    nodes_remapped: int = 0
    scp_timeouts: int = 0
    transfer_retries: int = 0
    transfer_failures: int = 0
    retry_time_us: float = 0.0
    messages_rerouted: int = 0
    messages_unreachable: int = 0
    replays: int = 0
    replayed_messages: int = 0
    messages_lost: int = 0
    # -- timeline counters (PR 6) -----------------------------------------
    #: Schedule events actually applied during the run.
    timeline_events: int = 0
    clusters_repaired: int = 0
    links_repaired: int = 0
    mus_restored: int = 0
    #: Messages silently dropped at delivery (gray — see
    #: :meth:`query_visible_failures`, which excludes them).
    markers_dropped: int = 0
    #: Extra MU service charged by gray slowdown factors, in µs.
    slowdown_us: float = 0.0

    #: Fields emitted by :meth:`as_dict` only when nonzero, so reports
    #: of schedule-free runs stay byte-identical to pre-timeline
    #: builds.  Every non-legacy field added to this dataclass must be
    #: listed here (a sync test enforces it).
    _CONDITIONAL_FIELDS = (
        "timeline_events", "clusters_repaired", "links_repaired",
        "mus_restored", "markers_dropped", "slowdown_us",
    )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (JSON-friendly).

        The original (static-era) counters are always present; the
        timeline counters appear only when nonzero, so a run without
        schedule or gray activity dumps exactly the legacy record.
        """
        record = {
            "clusters_failed": self.clusters_failed,
            "mus_lost": self.mus_lost,
            "links_failed": self.links_failed,
            "nodes_remapped": self.nodes_remapped,
            "scp_timeouts": self.scp_timeouts,
            "transfer_retries": self.transfer_retries,
            "transfer_failures": self.transfer_failures,
            "retry_time_us": self.retry_time_us,
            "messages_rerouted": self.messages_rerouted,
            "messages_unreachable": self.messages_unreachable,
            "replays": self.replays,
            "replayed_messages": self.replayed_messages,
            "messages_lost": self.messages_lost,
        }
        for name in self._CONDITIONAL_FIELDS:
            value = getattr(self, name)
            if value:
                record[name] = value
        return record

    def total_injected(self) -> int:
        """Aggregate count of fault events that actually occurred."""
        return (
            self.clusters_failed + self.mus_lost + self.links_failed
            + self.scp_timeouts + self.transfer_retries
        )

    def query_visible_failures(self) -> int:
        """Damage a *query* can observe in its answer.

        Retries, reroutes, and replays are recovered transparently —
        the result set is intact, only slower.  Lost or unreachable
        messages (and transfers that exhausted their retry budget) mean
        markers never arrived: the answer is silently incomplete.  The
        serving host's circuit breakers treat any nonzero value as a
        failed attempt on that replica.

        ``markers_dropped`` is deliberately **excluded**: a silent drop
        produces no error signal of any kind (that is what makes it
        gray), so neither the query nor the breaker can see it — only
        the host's answer-integrity audit can
        (:mod:`repro.host.health`).
        """
        return (
            self.messages_lost
            + self.messages_unreachable
            + self.transfer_failures
        )


class FaultInjector:
    """Realized fault pattern for one machine + runtime sampling.

    Construction fixes the *static* pattern (failed clusters, lost MUs,
    dead links) from the config seed; :meth:`transfer_corrupted`,
    :meth:`scp_timeout`, and :meth:`marker_dropped` sample the
    *transient* faults from independent streams.  Because the DES is
    deterministic, the sampling order — and therefore the full event
    trace — is bit-reproducible for a given seed.

    On top of the static pattern the injector carries the **live world
    state** the fault timeline mutates: the currently offline clusters
    and dead links (:attr:`blocked_clusters` / :attr:`blocked_links`,
    initialized from the static pattern), the current MU counts, the
    per-cluster gray slowdown factors, and the current corruption/drop
    probabilities.  :meth:`apply_event` advances that state one
    :class:`FaultEvent` at a time; with an empty schedule nothing ever
    mutates and the injector behaves exactly like the static-era one.
    """

    def __init__(
        self,
        config: FaultConfig,
        num_clusters: int,
        mu_counts: Sequence[int],
        topology: Optional[HypercubeTopology] = None,
    ) -> None:
        if len(mu_counts) != num_clusters:
            raise FaultConfigError(
                "mu_counts must provide one entry per cluster"
            )
        for event in config.schedule.events:
            referenced = []
            if event.cluster is not None:
                referenced.append(event.cluster)
            if event.link is not None:
                referenced.extend(event.link)
            bad = sorted(
                c for c in referenced if not 0 <= c < num_clusters
            )
            if bad:
                raise FaultConfigError(
                    f"schedule event {event.kind!r} at "
                    f"t={event.time_us} names cluster ids out of range "
                    f"for a {num_clusters}-cluster machine: {bad}"
                )
        self.cfg = config
        self.num_clusters = num_clusters
        self.stats = FaultStats()
        self.failed_clusters: FrozenSet[int] = failed_clusters_for(
            config, num_clusters
        )
        self.stats.clusters_failed = len(self.failed_clusters)

        # MU server loss on surviving clusters (first MU spared).
        mu_rng = _stream(config, "mus")
        effective: List[int] = []
        for cid, count in enumerate(mu_counts):
            if cid in self.failed_clusters or config.mu_loss_prob <= 0:
                effective.append(count)
                continue
            lost = sum(
                1 for _ in range(count - 1)
                if mu_rng.random() < config.mu_loss_prob
            )
            self.stats.mus_lost += lost
            effective.append(count - lost)
        self.effective_mu_counts: Tuple[int, ...] = tuple(effective)
        #: Configured (pre-loss) MU counts, kept for observability.
        self.configured_mu_counts: Tuple[int, ...] = tuple(mu_counts)

        # ICN link failures over the topology's undirected adjacency.
        # A shared topology (one per machine) is reused for the
        # enumeration; ``neighbors`` is memoized and deterministic, so
        # the RNG draw order — and the realized pattern — is identical
        # to a freshly built topology.
        self.dead_links: FrozenSet[Tuple[int, int]] = frozenset()
        if config.link_fail_prob > 0:
            link_rng = _stream(config, "links")
            topo = (
                topology
                if topology is not None
                else HypercubeTopology(num_clusters)
            )
            dead: Set[Tuple[int, int]] = set()
            for a in range(num_clusters):
                for b in topo.neighbors(a):
                    if b <= a:
                        continue
                    if link_rng.random() < config.link_fail_prob:
                        dead.add(link_key(a, b))
            self.dead_links = frozenset(dead)
            self.stats.links_failed = len(self.dead_links)

        self._transfer_rng = _stream(config, "transfer")
        self._scp_rng = _stream(config, "scp")

        # -- live world state (mutated only by apply_event) ---------------
        self.schedule = config.schedule
        self._offline: Set[int] = set(self.failed_clusters)
        self._dead: Set[Tuple[int, int]] = set(self.dead_links)
        # Routing keys: with an empty schedule these stay the *same*
        # frozenset objects as the static pattern for the whole run.
        self._blocked_clusters: FrozenSet[int] = self.failed_clusters
        self._blocked_links: FrozenSet[Tuple[int, int]] = self.dead_links
        self._mu_current: List[int] = list(self.effective_mu_counts)
        self._slowdowns: Dict[int, float] = {}
        self._corrupt_prob = config.transfer_corrupt_prob
        self._drop_prob = config.marker_drop_prob
        # The drop stream is constructed only when a drop can ever
        # happen, preserving the zero-RNG contract for configs that
        # never sample it.
        self._drop_rng: Optional[random.Random] = None
        events = config.schedule.events
        #: Whether transfer corruption can occur at any point of the
        #: run (static rate or a corrupt-rate event raising it) — the
        #: simulator keys per-transfer recovery records on this.
        self.corruption_possible = config.transfer_corrupt_prob > 0 or any(
            e.kind == "corrupt-rate" and e.value > 0 for e in events
        )
        #: Whether a silent marker drop can ever occur.
        self.drops_possible = config.marker_drop_prob > 0 or any(
            e.kind == "marker-drop" and e.value > 0 for e in events
        )
        if self.drops_possible:
            self._drop_rng = _stream(config, "drop")
        #: Whether any MU slowdown can ever apply.
        self.slowdown_possible = config.mu_slowdown_factor > 1.0 or any(
            e.kind == "mu-slowdown" and e.value > 1.0 for e in events
        )

    # -- observability ----------------------------------------------------
    def emit_injection_events(self, tracer, track: int, ts: float = 0.0) -> None:
        """Emit the realized *static* fault pattern as trace instants.

        One instant per offline cluster, per dead link, and (when any
        MU was lost) one summarizing instant per affected cluster —
        all at ``ts`` (machine construction time) on the given tracer
        track, so a Perfetto timeline shows what the run started out
        degraded with before any recovery event fires.
        """
        for cid in sorted(self.failed_clusters):
            tracer.instant(track, "cluster-offline", ts, ("cluster",), cid)
        for a, b in sorted(self.dead_links):
            tracer.instant(track, "link-dead", ts, ("link",), f"{a}-{b}")
        if self.stats.mus_lost:
            for cid, effective in enumerate(self.effective_mu_counts):
                lost = self.configured_mu_counts[cid] - effective
                if lost > 0 and cid not in self.failed_clusters:
                    tracer.instant(
                        track, "mus-lost", ts,
                        ("cluster", "lost", "surviving_mus"),
                        cid, lost, effective,
                    )

    # -- runtime sampling -------------------------------------------------
    def transfer_corrupted(self) -> bool:
        """Sample one memory-port transfer: corrupted in flight?

        Uses the *current* corruption rate (the static config rate
        until a ``corrupt-rate`` event replaces it).  A zero rate
        draws nothing, so sample sequences stay aligned across runs
        that share a seed and schedule.
        """
        if self._corrupt_prob <= 0:
            return False
        return self._transfer_rng.random() < self._corrupt_prob

    def marker_dropped(self) -> bool:
        """Sample one ICN delivery: silently dropped?"""
        if self._drop_prob <= 0:
            return False
        return self._drop_rng.random() < self._drop_prob

    def scp_timeout(self) -> bool:
        """Sample one broadcast: transient SCP/bus timeout?"""
        if self.cfg.scp_timeout_prob <= 0:
            return False
        return self._scp_rng.random() < self.cfg.scp_timeout_prob

    # -- live world state -------------------------------------------------
    @property
    def blocked_clusters(self) -> FrozenSet[int]:
        """Clusters routing must avoid *right now*."""
        return self._blocked_clusters

    @property
    def blocked_links(self) -> FrozenSet[Tuple[int, int]]:
        """Links routing must avoid *right now*."""
        return self._blocked_links

    @property
    def current_mu_counts(self) -> Tuple[int, ...]:
        """Per-cluster MU counts as of the last applied event."""
        return tuple(self._mu_current)

    def slowdown_for(self, cluster: int) -> float:
        """Current gray service multiplier for one cluster's MUs."""
        return self._slowdowns.get(cluster, self.cfg.mu_slowdown_factor)

    def apply_event(self, event: FaultEvent) -> bool:
        """Advance the live world state by one timeline event.

        Idempotent per state bit (failing an offline cluster or
        repairing a healthy one is a no-op), and a ``cluster-fail``
        that would take the *last* online cluster down is ignored —
        the machine always keeps one survivor, mirroring
        :func:`failed_clusters_for`.

        Returns ``True`` when the routing-visible state (offline
        clusters or dead links) changed, so the caller can switch
        route tables and refresh dispatch sets.
        """
        self.stats.timeline_events += 1
        kind = event.kind
        routing_changed = False
        if kind == "cluster-fail":
            cid = event.cluster
            if (
                cid not in self._offline
                and len(self._offline) < self.num_clusters - 1
            ):
                self._offline.add(cid)
                self.stats.clusters_failed += 1
                routing_changed = True
        elif kind == "cluster-repair":
            if event.cluster in self._offline:
                self._offline.discard(event.cluster)
                self.stats.clusters_repaired += 1
                routing_changed = True
        elif kind == "link-fail":
            key = link_key(*event.link)
            if key not in self._dead:
                self._dead.add(key)
                self.stats.links_failed += 1
                routing_changed = True
        elif kind == "link-repair":
            key = link_key(*event.link)
            if key in self._dead:
                self._dead.discard(key)
                self.stats.links_repaired += 1
                routing_changed = True
        elif kind == "mu-fail":
            cid = event.cluster
            lost = 1 if event.value is None else int(event.value)
            current = self._mu_current[cid]
            new = max(1, current - lost)
            if new != current:
                self.stats.mus_lost += current - new
                self._mu_current[cid] = new
        elif kind == "mu-repair":
            cid = event.cluster
            current = self._mu_current[cid]
            configured = self.configured_mu_counts[cid]
            if event.value is None:
                new = configured
            else:
                new = min(configured, current + int(event.value))
            if new > current:
                self.stats.mus_restored += new - current
                self._mu_current[cid] = new
        elif kind == "mu-slowdown":
            self._slowdowns[event.cluster] = event.value
        elif kind == "corrupt-rate":
            self._corrupt_prob = event.value
        elif kind == "marker-drop":
            self._drop_prob = event.value
        if routing_changed:
            self._blocked_clusters = frozenset(self._offline)
            self._blocked_links = frozenset(self._dead)
        return routing_changed
