"""Tests for the append-only performance run ledger."""

import json
from types import SimpleNamespace

import pytest

from repro.exec import Report, ReportEntry
from repro.telemetry import deactivate, session
from repro.telemetry.context import SNAPSHOT_FORMAT
from repro.telemetry.ledger import (
    LEDGER_FORMAT,
    TRAJECTORY_FORMAT,
    Ledger,
    LedgerEntry,
    default_ledger_path,
    git_provenance,
    host_fingerprint,
    maybe_record_sweep,
    record_run,
    update_trajectory,
)


@pytest.fixture(autouse=True)
def no_session_or_env(monkeypatch):
    deactivate()
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    yield
    deactivate()


def gate(name="g", ok=True, value=2.0):
    return {"name": name, "value": value, "op": ">=", "threshold": 1.0, "ok": ok}


class TestLedger:
    def test_append_read_roundtrip(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(LedgerEntry(bench="b", ts=1.0, gates=[gate()]))
        (entry,) = ledger.entries()
        assert entry.bench == "b"
        assert entry.format == LEDGER_FORMAT
        assert entry.gates == [gate()]
        assert len(ledger) == 1

    def test_appends_are_single_json_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append(LedgerEntry(bench="a"))
        ledger.append(LedgerEntry(bench="b"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["format"] == LEDGER_FORMAT for line in lines)

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = LedgerEntry(bench="good").to_json()
        path.write_text(
            "\n".join(
                [good, "not json {", '["a", "list"]', "", '{"no": "bench"}', good]
            )
            + "\n"
        )
        entries = Ledger(path).entries()
        assert [e.bench for e in entries] == ["good", "good"]

    def test_unknown_fields_are_filtered_not_fatal(self):
        entry = LedgerEntry.from_dict(
            {"bench": "x", "ts": 2.0, "from_the_future": {"v": 9}}
        )
        assert entry.bench == "x" and entry.ts == 2.0

    def test_bench_filter_last_and_benches(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        for i in range(3):
            ledger.append(LedgerEntry(bench="a", ts=float(i)))
        ledger.append(LedgerEntry(bench="b"))
        assert [e.ts for e in ledger.entries("a")] == [0.0, 1.0, 2.0]
        assert [e.ts for e in ledger.last(2, bench="a")] == [1.0, 2.0]
        assert ledger.benches() == ["a", "b"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert Ledger(tmp_path / "nope.jsonl").entries() == []

    def test_ok_property(self):
        assert LedgerEntry(bench="x").ok  # vacuously: no gates
        assert LedgerEntry(bench="x", gates=[gate(ok=True)]).ok
        assert not LedgerEntry(
            bench="x", gates=[gate(ok=True), gate(ok=False)]
        ).ok


class TestRecordRun:
    def test_provenance_complete(self, tmp_path):
        report = Report(
            title="t",
            entries=[
                ReportEntry(
                    experiment="e", quantity="q", measured=1.5, metrics={"m": 1}
                )
            ],
        )
        entry = record_run(
            "bench_x",
            params={"workload": "stream.copy"},
            gates=[gate()],
            report=report,
            timings={"wall_s": 0.5},
            flags={"engine": "batched"},
            repo_root=tmp_path,  # not a git repo: sha None, never raises
        )
        prov = entry.provenance
        assert set(prov) == {"git", "host", "backend", "flags", "model_version"}
        assert prov["git"] == {"sha": None, "dirty": None}
        assert prov["backend"] == "vectis"
        assert prov["flags"] == {"engine": "batched"}
        assert {"hostname", "platform", "machine", "python", "cpus"} <= set(
            prov["host"]
        )
        assert entry.run_id and entry.ts > 0
        assert entry.params == {"workload": "stream.copy"}
        assert entry.timings == {"wall_s": 0.5}
        assert entry.results == [
            {
                "experiment": "e",
                "quantity": "q",
                "measured": 1.5,
                "ok": None,
                "metrics": {"m": 1},
            }
        ]
        assert entry.telemetry is None  # no session active

    def test_backend_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "hbm2")
        assert record_run("b").provenance["backend"] == "hbm2"

    def test_captures_active_session_snapshot(self):
        with session() as tel:
            tel.metrics.counter("sim.chunks").inc(3)
            entry = record_run("b")
        assert entry.telemetry["format"] == SNAPSHOT_FORMAT
        assert entry.telemetry["metrics"]["counters"]["sim.chunks"] == 3

    def test_explicit_snapshot_dict_passes_through(self):
        snap = {"format": SNAPSHOT_FORMAT, "metrics": {"counters": {}}}
        assert record_run("b", telemetry=snap).telemetry is snap


class TestHelpers:
    def test_default_ledger_path(self, monkeypatch, tmp_path):
        assert default_ledger_path() is None
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert default_ledger_path() == tmp_path / "l.jsonl"

    def test_git_provenance_outside_repo(self, tmp_path):
        assert git_provenance(tmp_path) == {"sha": None, "dirty": None}

    def test_host_fingerprint_shape(self):
        fp = host_fingerprint()
        assert fp["cpus"] >= 1
        assert isinstance(fp["hostname"], str)


class TestTrajectory:
    def entry(self, ts):
        return LedgerEntry(
            bench="b", ts=ts, telemetry={"format": SNAPSHOT_FORMAT}
        )

    def test_mirror_accumulates_and_drops_telemetry(self, tmp_path):
        path = tmp_path / "BENCH_b.json"
        update_trajectory(path, self.entry(1.0))
        update_trajectory(path, self.entry(2.0))
        doc = json.loads(path.read_text())
        assert doc["format"] == TRAJECTORY_FORMAT
        assert doc["bench"] == "b"
        assert [r["ts"] for r in doc["runs"]] == [1.0, 2.0]
        assert all("telemetry" not in r for r in doc["runs"])

    def test_keep_bounds_history(self, tmp_path):
        path = tmp_path / "BENCH_b.json"
        for i in range(5):
            update_trajectory(path, self.entry(float(i)), keep=3)
        doc = json.loads(path.read_text())
        assert [r["ts"] for r in doc["runs"]] == [2.0, 3.0, 4.0]

    def test_corrupt_prior_file_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH_b.json"
        path.write_text("{ not json")
        update_trajectory(path, self.entry(1.0))
        assert len(json.loads(path.read_text())["runs"]) == 1


class TestMaybeRecordSweep:
    def sweep(self):
        return SimpleNamespace(
            wall_seconds=1.0,
            ipc_seconds=0.05,
            compute_seconds=0.8,
            workers=2,
            chunks=3,
            n_cached=0,
            batched_points=90,
            results=[1, 2, 3],
        )

    def test_noop_without_ledger_env(self):
        snap = {"format": SNAPSHOT_FORMAT}
        assert maybe_record_sweep(["dse"], self.sweep(), snap) is None

    def test_noop_without_telemetry(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert maybe_record_sweep(["dse"], self.sweep(), None) is None
        assert not (tmp_path / "l.jsonl").exists()

    def test_appends_when_configured(self, monkeypatch, tmp_path):
        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        snap = {"format": SNAPSHOT_FORMAT}
        entry = maybe_record_sweep(["dse", "dse"], self.sweep(), snap)
        assert entry.bench == "sweep.dse"
        assert entry.params == {"experiments": ["dse"], "points": 3}
        assert entry.timings == {
            "wall_seconds": 1.0,
            "ipc_seconds": 0.05,
            "compute_seconds": 0.8,
        }
        (stored,) = Ledger(path).entries()
        assert stored.bench == "sweep.dse"

    def test_mixed_experiments_name(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        entry = maybe_record_sweep(
            ["stream", "dse"], self.sweep(), {"format": SNAPSHOT_FORMAT}
        )
        assert entry.bench == "sweep.mixed"
