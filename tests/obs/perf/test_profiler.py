"""Sampling profiler: sampler lifecycle, folded stacks, rollups, join."""

import threading
import time

import numpy as np
import pytest

from repro.obs.perf.profiler import (
    Profile,
    ProfilerThreadError,
    SamplingProfiler,
    bucket_of,
    frame_label,
    module_of,
    normalize_phase,
    wall_simulated_join,
)


def _burn(seconds: float) -> int:
    """Pure-Python busy loop the sampler can catch in the act."""
    deadline = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < deadline:
        count += sum(range(50))
    return count


def _profile(samples):
    total = sum(samples.values())
    return Profile(
        samples=dict(samples), sample_count=total,
        duration_s=float(total) / 100.0, hz=100.0,
    )


class TestModuleResolution:
    def test_repro_source_path(self):
        assert (
            module_of("/root/repo/src/repro/core/backends.py")
            == "repro.core.backends"
        )

    def test_package_init_collapses_to_package(self):
        assert module_of("/x/src/repro/obs/__init__.py") == "repro.obs"

    def test_site_packages_path(self):
        path = "/usr/lib/python3.11/site-packages/numpy/core/numeric.py"
        assert module_of(path) == "numpy.core.numeric"

    def test_stdlib_falls_back_to_basename(self):
        assert module_of("/usr/lib/python3.11/threading.py") == "threading"

    def test_frame_label_joins_module_and_function(self):
        label = frame_label("/x/src/repro/machine/des.py", "run")
        assert label == "repro.machine.des:run"


class TestBuckets:
    @pytest.mark.parametrize("label, bucket", [
        ("repro.core.backends:propagate", "repro.core.backends"),
        ("repro.core.engine:execute", "repro.core"),
        ("repro.machine.des:run", "repro.machine.des"),
        ("repro.machine.simulator:_deliver", "repro.machine"),
        ("repro.host.host:serve", "repro.host"),
        ("repro.__main__:main", "repro"),
        ("numpy.core.numeric:dot", "numpy"),
        ("threading:wait", "other"),
    ])
    def test_longest_prefix_wins(self, label, bucket):
        assert bucket_of(label) == bucket


class TestFoldedStacks:
    def test_format_and_determinism(self):
        profile = _profile({
            ("a:f", "b:g"): 3,
            ("a:f",): 2,
            ("a:f", "b:g", "c:h"): 1,
        })
        assert profile.folded() == (
            "a:f 2\n"
            "a:f;b:g 3\n"
            "a:f;b:g;c:h 1\n"
        )

    def test_empty_profile_folds_to_empty_string(self):
        assert Profile().folded() == ""

    def test_every_line_parses_as_stack_and_count(self):
        profile = _profile({("m:f", "m:g"): 4, ("m:f",): 1})
        for line in profile.folded().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert all(";" not in frame for frame in stack.split(";"))


class TestCounts:
    def test_exclusive_counts_leaves_only(self):
        profile = _profile({("a:f", "b:g"): 3, ("a:f",): 2})
        assert profile.exclusive_counts() == {"b:g": 3, "a:f": 2}

    def test_inclusive_counts_anywhere_on_stack(self):
        profile = _profile({("a:f", "b:g"): 3, ("a:f",): 2})
        assert profile.inclusive_counts() == {"a:f": 5, "b:g": 3}

    def test_recursive_frames_count_once_per_sample(self):
        profile = _profile({("a:f", "a:f", "a:f"): 4})
        assert profile.inclusive_counts() == {"a:f": 4}
        assert profile.inclusive_counts()["a:f"] <= profile.sample_count

    def test_bucket_rollup_sorted_by_exclusive(self):
        profile = _profile({
            ("repro.__main__:main", "repro.core.backends:propagate"): 5,
            ("repro.__main__:main", "repro.core.engine:execute"): 2,
        })
        rollup = profile.bucket_rollup()
        assert rollup[0]["bucket"] == "repro.core.backends"
        assert rollup[0]["exclusive"] == 5
        assert rollup[0]["inclusive"] == 5
        # The bench frame is on every stack, so its bucket is fully
        # inclusive but has no exclusive samples.
        repro_row = next(r for r in rollup if r["bucket"] == "repro")
        assert repro_row["exclusive"] == 0
        assert repro_row["inclusive"] == 7


class TestReport:
    def test_report_structure(self):
        profile = _profile({("repro.core.backends:propagate",): 10})
        text = profile.report(label="unit")
        assert "# Wall-clock profile — unit" in text
        assert "## Subsystem rollup" in text
        assert "## Hottest frames" in text
        assert "repro.core.backends" in text

    def test_empty_profile_report(self):
        text = Profile().report(label="empty")
        assert "no samples captured" in text

    def test_join_section_rendered_when_rows_given(self):
        profile = _profile({("repro.core.backends:propagate",): 10})
        rows = wall_simulated_join(profile, {"PROPAGATE #1": 100.0})
        text = profile.report(label="unit", join_rows=rows)
        assert "## Wall vs simulated time" in text
        assert "PROPAGATE" in text

    def test_as_dict_round_trips_to_json_types(self):
        import json

        profile = _profile({("a:f",): 1})
        record = profile.as_dict()
        assert record["kind"] == "repro-perf-profile"
        json.dumps(record)  # must be JSON-serializable


class TestSamplerLifecycle:
    def test_samples_a_busy_loop(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        _burn(0.25)
        profile = profiler.stop()
        assert profile.sample_count > 0
        assert profile.duration_s >= 0.2
        labels = set()
        for stack in profile.samples:
            labels.update(stack)
        assert any("_burn" in label for label in labels)

    def test_start_is_idempotent(self):
        profiler = SamplingProfiler(hz=500)
        assert profiler.start() is profiler
        assert profiler.start() is profiler  # no second thread
        _burn(0.05)
        profile = profiler.stop()
        assert profile.sample_count >= 0
        assert not profiler.running

    def test_stop_without_start_returns_empty_profile(self):
        profile = SamplingProfiler().stop()
        assert profile.sample_count == 0
        assert profile.folded() == ""

    def test_stop_twice_is_safe_and_stable(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        _burn(0.05)
        first = profiler.stop()
        second = profiler.stop()
        assert second.sample_count == first.sample_count
        assert second.duration_s == first.duration_s

    def test_context_manager(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            assert profiler.running
            _burn(0.05)
        assert not profiler.running

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)


_CHUNKS = [np.zeros(20_000) for _ in range(8)]


def _python_half() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def _numpy_half() -> None:
    for _ in range(6):
        np.concatenate(_CHUNKS)


class TestSamplerBias:
    def test_samples_follow_wall_time_across_c_calls(self):
        """A loop alternating pure-Python work with numpy calls: the
        numpy half's share of samples tracks its share of the time the
        loop ran.  (A sampler thread, which needs the GIL to look, put
        every sample on the numpy half.)

        Each half is timed on the thread's CPU clock: wall time also
        counts the spells a loaded machine keeps the process off the
        CPU, in which the interval timer's ticks merge into one
        signal, so a wall-time share would measure the machine's load
        as well as the sampler."""
        cpu = {"python": 0.0, "numpy": 0.0}
        profiler = SamplingProfiler()
        profiler.start()
        deadline = time.perf_counter() + 0.6
        while time.perf_counter() < deadline:
            a = time.thread_time()
            _python_half()
            b = time.thread_time()
            _numpy_half()
            cpu["python"] += b - a
            cpu["numpy"] += time.thread_time() - b
        profile = profiler.stop()
        inclusive = profile.inclusive_counts()
        hits = {
            half: sum(count for label, count in inclusive.items()
                      if label.endswith(f":_{half}_half"))
            for half in cpu
        }
        assert sum(hits.values()) > 0
        sample_share = hits["numpy"] / sum(hits.values())
        cpu_share = cpu["numpy"] / sum(cpu.values())
        assert abs(sample_share - cpu_share) < 0.15
        assert profile.effective_hz > 0.5 * profile.hz

    def test_start_off_the_main_thread_raises(self):
        raised = []

        def start():
            try:
                SamplingProfiler().start()
            except ProfilerThreadError as exc:
                raised.append(exc)

        thread = threading.Thread(target=start)
        thread.start()
        thread.join()
        assert len(raised) == 1


class TestWallSimulatedJoin:
    def test_join_attributes_wall_to_matching_phases(self):
        profile = _profile({
            ("repro.__main__:main", "repro.core.backends:propagate"): 8,
            ("repro.__main__:main", "repro.core.engine:collect"): 2,
        })
        rows = wall_simulated_join(
            profile, {"PROPAGATE #3": 300.0, "COLLECT-NODE #4": 700.0}
        )
        by_phase = {row["phase"]: row for row in rows}
        # Sorted by simulated duration, descending.
        assert rows[0]["phase"] == "COLLECT-NODE"
        assert by_phase["PROPAGATE"]["simulated_share"] == 0.3
        assert by_phase["PROPAGATE"]["wall_share"] == 0.8
        assert by_phase["PROPAGATE"]["wall_s"] == pytest.approx(
            0.8 * profile.duration_s
        )

    def test_phase_with_no_matching_frames_reports_zero_wall(self):
        profile = _profile({("repro.core.backends:propagate",): 5})
        rows = wall_simulated_join(profile, {"dma": 100.0})
        assert rows[0]["wall_share"] == 0.0

    def test_empty_phase_table_yields_no_rows(self):
        assert wall_simulated_join(_profile({("a:f",): 1}), {}) == []

    def test_normalize_phase_strips_instance_suffix(self):
        assert normalize_phase("PROPAGATE #12") == "propagate"
        assert normalize_phase("des.run") == "desrun"
