"""Trace identity guard: captures and monitor snapshots, byte for byte.

Every digest below is the sha256 of ``json.dumps`` of a document the
observation layer produced.  They pin the exact bytes of the Chrome
export (event order, keys, argument order, timestamps) and of the
monitor snapshot, so a change to how events are captured, stored or
exported cannot alter what a consumer reads.  A digest may only change
with a stated change to simulated behaviour or to the trace format.
"""

import hashlib
import json

import pytest

from repro.obs import MetricsRegistry, TelemetrySink, Tracer
from repro.obs.capture import capture

#: Smoke captures of ``python -m repro trace WORKLOAD --smoke``.
CAPTURE_DIGESTS = {
    "propagate":
        "0e16d423aedb6cee7da4269bb6e10ce54200ff8e2d458aa584fafda9dfaaacf5",
    "faults":
        "ea74da86c1bb3f194a89ce529151088ae4bdef2900f974845ce157238280a4c4",
    "overload":
        "5a5149e262f9fcfaf585d1dd11ad57fa64c2d98c265fef7f443c1cbafb208d72",
    "chaos":
        "d1054b181f8f967228a6dd8df7e443d22c16a97a71ddb4c8e7af82c1a667c472",
    "fleetchaos":
        "03c796a0b5ea8bbf88c798ba0d88eadaa53570fcb04db71f86bbf2bb93bd32c7",
}

#: One host and one fleet stream served with tracer, metrics and sink
#: attached: (Chrome export with metrics, monitor snapshot).
OBSERVED_DIGESTS = {
    "host": (
        "4b35b44dc3ca536a9c98480f22f4ae33eca6e6d5a889c04709ecf2689005ad8f",
        "dc19df922220f66a21cc347b0d59ced5129b483fa4cb65e3b3e5f0f3d905e4a3",
    ),
    "fleet": (
        "702d21303cc5acfd920380bbbbe66278159084e65c2bd531979c0b72f0068a96",
        "2863469ad9f802e18ba6120b9ab318769eb5d4dd26cf6ab2869b4d204a95578d",
    ),
}


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def _observed(kind: str):
    """Serve half of a chaos scenario observed; return both documents."""
    from repro.obs.live.monitor import (
        chaos_spec, fleetchaos_spec, monitor_snapshot, run_pipeline,
    )

    tracer, metrics, sink = Tracer(), MetricsRegistry(), TelemetrySink()
    if kind == "host":
        from repro.experiments.chaos import build_scenario
        from repro.host import ServingHost
        from repro.obs.live.score import truth_from_replica_timeline

        network, config, queries, profile = build_scenario(fast=True)
        server = ServingHost(network, config, tracer=tracer,
                             metrics=metrics, sink=sink)
    else:
        from repro.experiments.fleetchaos import build_scenario
        from repro.fleet import FleetRouter

        network, config, queries, profile = build_scenario(fast=True)
        server = FleetRouter(network, config, tracer=tracer,
                             metrics=metrics, sink=sink)
    report = server.serve(queries[: len(queries) // 2])
    document = tracer.to_chrome_json(metrics)
    horizon = max(report.total_time_us,
                  max((e.ts_us for e in sink.events), default=0.0))
    if kind == "host":
        spec = chaos_spec(profile["mean_service_us"])
        truth = truth_from_replica_timeline(config.replica_timeline,
                                            horizon_us=horizon)
    else:
        spec = fleetchaos_spec()
        truth = config.region_schedule.fault_windows()
    run = run_pipeline(spec, sink.ordered(), truth, horizon_us=horizon)
    return document, monitor_snapshot(run)


@pytest.mark.parametrize("workload", sorted(CAPTURE_DIGESTS))
def test_smoke_capture_bytes_unchanged(workload):
    assert _digest(capture(workload, smoke=True)) == CAPTURE_DIGESTS[workload]


@pytest.mark.parametrize("kind", sorted(OBSERVED_DIGESTS))
def test_observed_stream_bytes_unchanged(kind):
    document, snapshot = _observed(kind)
    assert (_digest(document), _digest(snapshot)) == OBSERVED_DIGESTS[kind]
