"""``python -m repro perf`` CLI: profile artifacts and check gating."""

import json
import pathlib

import pytest

from repro.obs.perf.cli import main
from repro.obs.perf.history import HISTORY_KIND

from .test_history import history, make_record


def write_history(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


NOISE_RATES = [100_000, 98_500, 103_000, 101_000, 97_000, 102_000]

NOISE_FIXTURE = (
    pathlib.Path(__file__).resolve().parents[3]
    / "goldens" / "perf" / "history-noise.jsonl"
)


def slowed_noise_fixture():
    """The noise fixture plus a copy of its newest ``propagate`` record
    with every per-run wall x1.5 (a -33% rate step)."""
    records = [
        json.loads(line)
        for line in NOISE_FIXTURE.read_text().splitlines()
        if line.strip()
    ]
    slow = dict(next(r for r in reversed(records) if r["lane"] == "propagate"))
    slow["wall_runs"] = [wall * 1.5 for wall in slow["wall_runs"]]
    slow["wall_s"] = sum(slow["wall_runs"])
    return records + [slow]


class TestPerfProfile:
    def test_profile_emits_folded_report_and_json(self, tmp_path, capsys):
        folded = tmp_path / "propagate.folded"
        report = tmp_path / "propagate.md"
        record = tmp_path / "propagate.json"
        code = main([
            "profile", "propagate", "--smoke", "--hz", "797",
            "--folded-out", str(folded),
            "--report", str(report),
            "--json", str(record),
        ])
        assert code == 0
        # Folded stacks: every line is "frame;frame;... count".
        for line in folded.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert stack
        text = report.read_text()
        assert "# Wall-clock profile — propagate --smoke" in text
        assert "## Subsystem rollup" in text
        document = json.loads(record.read_text())
        assert document["kind"] == "repro-perf-profile"
        assert document["workload"] == "propagate"
        assert document["lane"]["events"] > 0
        printed = capsys.readouterr().out
        assert str(folded) in printed

    def test_profile_propagate_vec_rolls_up_backends_bucket(
        self, tmp_path
    ):
        """The acceptance check: the propagate-vec lane's wall time
        lands in the repro.core.backends bucket (the propagation
        kernels), visible in the rollup's top buckets."""
        record = tmp_path / "pv.json"
        code = main([
            "profile", "propagate-vec", "--smoke", "--hz", "797",
            "--json", str(record),
        ])
        assert code == 0
        document = json.loads(record.read_text())
        top = [row["bucket"] for row in document["buckets"][:3]]
        assert "repro.core.backends" in top

    def test_trace_join_section_present_on_des_lane(self, tmp_path):
        report = tmp_path / "p.md"
        code = main([
            "profile", "propagate", "--smoke", "--hz", "397",
            "--trace-join", "--report", str(report),
        ])
        assert code == 0
        text = report.read_text()
        assert "## Wall vs simulated time" in text
        assert "PROPAGATE" in text

    def test_report_prints_to_stdout_by_default(self, capsys):
        assert main(["profile", "dispatch", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "# Wall-clock profile — dispatch --smoke" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "no-such-lane"])


class TestPerfCheck:
    def test_noise_history_passes(self, tmp_path, capsys):
        path = write_history(
            tmp_path / "h.jsonl", history(NOISE_RATES, newest_rate=101_000)
        )
        assert main(["check", "--history", path]) == 0
        out = capsys.readouterr().out
        assert "noise" in out
        assert "perf check: ok" in out

    def test_injected_regression_fails(self, tmp_path, capsys):
        inputs = {
            "synthetic": history(NOISE_RATES, newest_rate=65_000),
            "noise-fixture-x1.5": slowed_noise_fixture(),
        }
        for name, records in inputs.items():
            path = write_history(tmp_path / f"{name}.jsonl", records)
            assert main(["check", "--history", path]) == 1, name
            out = capsys.readouterr().out
            assert "REGRESSION" in out
            assert "regression detected" in out

    def test_check_writes_json_verdicts(self, tmp_path):
        path = write_history(
            tmp_path / "h.jsonl", history(NOISE_RATES, newest_rate=65_000)
        )
        out = tmp_path / "check.json"
        assert main(["check", "--history", path, "--json", str(out)]) == 1
        document = json.loads(out.read_text())
        assert document["kind"] == "repro-perf-check"
        assert document["ok"] is False
        assert document["lanes"][0]["verdict"] == "regression"

    def test_bootstrap_band_selectable(self, tmp_path):
        path = write_history(
            tmp_path / "h.jsonl", history(NOISE_RATES, newest_rate=65_000)
        )
        assert main(["check", "--history", path, "--band", "bootstrap"]) == 1

    def test_missing_history_exits_2(self, tmp_path, capsys):
        code = main(["check", "--history", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "no history" in capsys.readouterr().err

    def test_malformed_history_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text("{broken\n")
        assert main(["check", "--history", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_insufficient_history_is_ok(self, tmp_path, capsys):
        path = write_history(
            tmp_path / "h.jsonl",
            [make_record(rate=100_000), make_record(rate=40_000)],
        )
        assert main(["check", "--history", path]) == 0
        assert "insufficient-history" in capsys.readouterr().out

    def test_empty_history_is_ok(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\n")
        assert main(["check", "--history", str(path)]) == 0
        assert "no lane records" in capsys.readouterr().out


class TestGoldenFixture:
    """The checked-in noise fixture CI gates with must stay green."""

    def test_goldens_noise_fixture_passes(self):
        import pathlib

        fixture = (
            pathlib.Path(__file__).resolve().parents[3]
            / "goldens" / "perf" / "history-noise.jsonl"
        )
        assert fixture.exists()
        assert main(["check", "--history", str(fixture)]) == 0

    def test_goldens_fixture_records_are_history_kind(self):
        import pathlib

        fixture = (
            pathlib.Path(__file__).resolve().parents[3]
            / "goldens" / "perf" / "history-noise.jsonl"
        )
        for line in fixture.read_text().splitlines():
            assert json.loads(line)["kind"] == HISTORY_KIND
