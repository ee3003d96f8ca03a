"""Every checked-in ``goldens/*-smoke.json`` gates its workload.

Trace goldens (``WORKLOAD-smoke.json``) are compared against a fresh
``trace WORKLOAD --smoke`` capture; monitor goldens
(``monitor-WORKLOAD-smoke.json``) against a fresh fast-size
``monitor WORKLOAD`` snapshot.  Each case also proves the comparison
has teeth: doubling one golden value must fail the gate.
"""

import copy
import json
import pathlib

import pytest

from repro.obs.analyze import analyze_document, compare_snapshots
from repro.obs.capture import capture
from repro.obs.live.cli import MONITOR_WORKLOADS
from repro.obs.live.monitor import monitor_snapshot

GOLDENS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "goldens")
    .glob("*-smoke.json")
)


def current_snapshot(name):
    workload = name[: -len("-smoke.json")]
    if workload.startswith("monitor-"):
        run = MONITOR_WORKLOADS[workload[len("monitor-"):]](fast=True)
        return monitor_snapshot(run)
    return analyze_document(capture(workload, smoke=True)).snapshot


def test_every_golden_is_collected():
    assert len(GOLDENS) == 7


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.name)
def test_golden_compares_clean_and_catches_a_doubled_value(path):
    golden = json.loads(path.read_text())
    snapshot = current_snapshot(path.name)
    drift = compare_snapshots(snapshot, golden)
    assert drift.ok, drift.describe()

    doctored = copy.deepcopy(golden)
    values = doctored["values"]
    key = max(values, key=lambda k: abs(values[k]))
    values[key] *= 2
    assert not compare_snapshots(snapshot, doctored).ok
