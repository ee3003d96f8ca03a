"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import stats
import workloads
from spans import Patches, Span, SpanRecorder, covered, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_and_adjacent_children():
    tree = [
        Span("parent", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("adjacent", 4.0, 6.0, parent=0),
    ]
    assert self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_overlapping_children_are_covered_once():
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == 6.0
    assert covered(0.0, 10.0, [(8.0, 12.0), (-2.0, 1.0)]) == 3.0


def test_recorder_links_parents_and_attaches_counts():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap(lambda: 7, "inner",
                          after=lambda span, args, result:
                          span.attrs.update(value=result))
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    assert outer() == 14
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert recorder.spans[1].attrs == {"value": 7}
    assert self_times(recorder.spans)[0] == 3.0


def test_patches_restore_the_original_attribute():
    class Layer:
        def call(self):
            return "done"

    original = Layer.__dict__["call"]
    recorder = SpanRecorder()
    patches = Patches(recorder, [(Layer, "call", "layer.call", None)])
    patches.install()
    assert Layer().call() == "done"
    patches.uninstall()
    assert Layer.__dict__["call"] is original
    assert [s.name for s in recorder.spans] == ["layer.call"]


# ----------------------------------------------------------------------
# Percentiles and spread
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 90) == 90.0
    assert stats.samples_beyond(len(values), 90) == 10
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:99], 90)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:19], 50)


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([10.0] * 5) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_unit_minima_are_taken_within_interleaved_groups_of_passes():
    passes = [{"a": 5.0, "b": 1.0}, {"a": 3.0, "b": 2.0},
              {"a": 4.0, "b": 0.5}, {"a": 6.0, "b": 3.0}]
    assert stats.block_minima(passes, 1) == [3.0, 0.5]
    # groups: passes {0, 2} and {1, 3}
    assert stats.block_minima(passes, 2) == [4.0, 0.5, 3.0, 2.0]
    assert stats.best_total(passes) == 3.5


def test_best_percentile_uses_just_enough_groups_for_its_tail():
    units = {f"u{i}": float(i) for i in range(25)}
    passes = [dict(units) for _ in range(8)]
    value, count = stats.best_percentile(passes, 90)
    assert (count, stats.blocks_for(25, 90)) == (100, 4)
    assert value == 22.0
    assert stats.best_percentile(passes, 50)[1] == 25
    with pytest.raises(stats.TooFewSamples):
        stats.best_percentile(passes[:3], 90)


# ----------------------------------------------------------------------
# A perturbed output is a failed item
# ----------------------------------------------------------------------
@pytest.fixture
def inherit_unit():
    from repro.baselines.simd import SimdMachine
    from repro.isa import assemble
    from repro.machine import MachineConfig, SnapMachine
    from repro.network import generator

    network = generator.generate_hierarchy_kb(85, branching=4)
    state = workloads.InheritState(
        clean=SnapMachine(network, MachineConfig(num_clusters=4)),
        faulty=None, simd=SimdMachine(network), queries=[])
    program = assemble("SEARCH-NODE c1 b0\n"
                       "PROPAGATE b0 b1 chain(inverse:is-a)\n"
                       "COLLECT-NODE b1\n")
    wl = workloads.Inherit()
    return wl, state, lambda: workloads.timed(
        "q", 1, wl._query, state, program, False)


def test_clean_item_passes_and_repeats(inherit_unit):
    wl, state, make = inherit_unit
    checker = run.Checker(wl, state, references=None)
    checker.check([make(), make()])
    assert (checker.attempted, checker.failed) == (2, 0)


def test_perturbed_collected_set_fails_the_differential_check(inherit_unit):
    wl, state, make = inherit_unit
    unit = make()
    unit.output[0].traces[-1].result.pop()
    checker = run.Checker(wl, state, references=None)
    checker.check([unit])
    assert checker.failed == 1


def test_perturbed_simulated_time_mismatches_the_reference(inherit_unit):
    wl, state, make = inherit_unit
    reference = {"q": wl.check(state, make()).digest}
    unit = make()
    unit.output[0].total_time_us += 1e-9
    checker = run.Checker(wl, state, references=reference)
    checker.check([unit])
    assert checker.failed == 1
    assert "reference" in checker.problems[0]


def test_output_changing_between_passes_fails(inherit_unit):
    wl, state, make = inherit_unit
    changed = make()
    changed.output[0].events_processed += 1
    checker = run.Checker(wl, state, references=None)
    checker.check([make(), changed])
    assert checker.failed == 1


def test_raising_unit_fails_all_its_items():
    unit = workloads.timed("boom", 3, lambda: 1 / 0)
    checker = run.Checker(workloads.Inherit(), None, references=None)
    checker.check([unit])
    assert (checker.attempted, checker.failed) == (3, 3)
    assert "ZeroDivisionError" in checker.problems[0]


def test_perturbed_query_outcome_fails_that_query():
    from repro.experiments.overload import build_queries
    from repro.host import HostConfig, ServingHost
    from repro.network import generator

    network = generator.generate_hierarchy_kb(40, branching=3)
    config = HostConfig(num_replicas=2, clusters_per_replica=2)
    queries = build_queries(20, 1e-3, 1e5, seed=5)
    state = workloads.ServeState(
        host_network=network, host_config=config, mean_service_us=1.0,
        fleet_network=None, fleet_config=None, gray_off_us=0.0,
        streams=[("host0", "host", queries)])
    state.reference["host0"] = workloads.outcome_digests(
        ServingHost(network, config).serve(queries))
    wl = workloads.Serve()
    server, observers = wl._build(state, "host", queries, observed=False)
    unit = workloads.timed("host0", len(queries), wl._serve, state, "host",
                           server, observers, queries)
    assert wl.check(state, unit).failed == 0
    outcome = unit.output[0].outcomes[3]
    outcome.latency_us += 1.0
    assert wl.check(state, unit).failed == 1


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def test_metric_and_workload_names_are_well_formed_and_unique():
    document = spec()
    names = ([w["name"] for w in document["workloads"]]
             + [m["name"] for m in document["end_to_end"]]
             + [m["name"] for m in document["per_layer"]])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in document["workloads"]] == list(
        workloads.WORKLOADS)


def test_computed_metrics_are_exactly_the_declared_ones():
    from repro.obs.perf import Profile

    one_pass = {f"u{i}": 0.01 * i for i in range(1, 101)}
    slower = {label: 2 * seconds for label, seconds in one_pass.items()}
    result = {
        "setup_times": [1.0], "items_per_pass": 300,
        "passes": [one_pass, slower], "traced_passes": [slower],
        "setup_spans": [], "recorder": SpanRecorder(), "profile": Profile(),
    }
    declared = run.declared_metrics()
    values = run.end_to_end(result)
    assert set(values) == set(declared["end_to_end"])
    assert values["wall_s"] == pytest.approx(50.5)
    assert values["items_per_s"] == pytest.approx(300 / 50.5)
    assert values["item_p90_ms"] == pytest.approx(900.0)
    assert set(run.per_layer(result, observed=False)) == set(
        declared["per_layer"])


def test_layer_metrics_count_cache_hits_and_attached_time():
    tree = [
        Span("host.serve", 0.0, 10.0, attrs={"queries": 4, "events": 9}),
        Span("host.execute", 1.0, 3.0, parent=0),
        Span("machine.run", 1.5, 2.5, parent=1, attrs={"events": 5}),
        Span("host.execute", 4.0, 4.5, parent=0),
    ]
    metrics = spans.layer_metrics(tree, passes=1, observed=True)
    assert metrics["host.cache_hit_ratio"] == 0.5
    assert metrics["host.self_s"] == 7.5
    assert metrics["obs.attached_s"] == 10.0
    assert metrics["machine.ns_per_event"] == pytest.approx(2e8)
    assert spans.layer_metrics(tree, 1, observed=False)["obs.attached_s"] == 0


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_same_seed_gives_identical_streams_and_another_seed_does_not():
    def inherit(seed):
        return [label for label, *_ in workloads.inherit_queries(seed)]

    def serve(seed):
        return [
            (label, [(q.arrival_us, q.template) for q in queries])
            for label, _kind, queries in workloads.serve_streams(
                seed, 1e-3, 1e4, 2e3, 5e4)
        ]

    for stream in (inherit, workloads.nlu_sentences, serve):
        assert stream(3) == stream(3)
        assert stream(3) != stream(4)


def test_adhoc_share_is_fixed_answered_and_spread_over_templates():
    from collections import Counter

    for _label, _kind, queries in workloads.serve_streams(7, 1e-3, 1e4, 2e3,
                                                          5e4):
        answered = {q.query_id for q in queries[::3]}
        mixed = workloads.with_adhoc(queries, answered, "s")
        adhoc = [old for old, new in zip(queries, mixed)
                 if new.template is None]
        assert len(adhoc) == round(workloads.ADHOC_SHARE * len(queries)) > 0
        assert {q.query_id for q in adhoc} <= answered
        per_template = Counter(q.template for q in adhoc).values()
        assert max(per_template) - min(per_template) <= 1
        assert mixed == workloads.with_adhoc(queries, answered, "s")


def test_inherit_roots_at_one_depth_span_equal_subtrees():
    depth = workloads.depth_range(2)
    assert (depth.start, len(depth)) == (5, 16)
    last = workloads.depth_range(workloads.INHERIT_DEPTH)
    assert last.stop == workloads.INHERIT_NODES


# ----------------------------------------------------------------------
# Without the program's sources the command fails and prints no result
# ----------------------------------------------------------------------
def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inherit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
