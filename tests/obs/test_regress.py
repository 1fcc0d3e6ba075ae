"""Bench drift attribution + the append-only bench trajectory."""
import json

import pytest

from repro.bench import (
    append_history,
    history_record,
    load_history,
    make_payload,
)
from repro.obs import regress as rg
from repro.obs.__main__ import main as obs_main


def payload(**overrides):
    values = {
        "sim.kernel_seconds": 1.0,
        "sim.launches": 100.0,
        "wall.cold_s": 10.0,
    }
    values.update(overrides)
    return make_payload(values, tag="t", size="small", jobs=1)


class TestCompare:
    def test_identical_snapshots_all_ok(self):
        rows = rg.compare(payload(), payload())
        assert {r["status"] for r in rows} == {"ok"}
        assert rg.regressed(rows) == []

    def test_twenty_five_percent_slowdown_regresses(self):
        rows = rg.compare(payload(), payload(**{"sim.kernel_seconds": 1.25}))
        by = {r["metric"]: r for r in rows}
        assert by["sim.kernel_seconds"]["status"] == "regressed"
        assert by["sim.kernel_seconds"]["delta_pct"] == pytest.approx(25.0)
        assert by["sim.launches"]["status"] == "ok"

    def test_improvement_is_not_a_regression(self):
        rows = rg.compare(payload(), payload(**{"sim.kernel_seconds": 0.5}))
        by = {r["metric"]: r for r in rows}
        assert by["sim.kernel_seconds"]["status"] == "improved"
        assert rg.regressed(rows) == []

    def test_drift_within_threshold_ok(self):
        rows = rg.compare(payload(), payload(**{"sim.kernel_seconds": 1.19}))
        assert {r["status"] for r in rows} == {"ok"}

    def test_zero_base_tolerates_float_dust_only(self):
        rows = rg.compare(
            payload(**{"sim.launches": 0.0}),
            payload(**{"sim.launches": 1e-12}),
        )
        by = {r["metric"]: r for r in rows}
        assert by["sim.launches"]["status"] == "ok"
        rows = rg.compare(
            payload(**{"sim.launches": 0.0}),
            payload(**{"sim.launches": 5.0}),
        )
        assert rg.compare(payload(), payload())  # sanity
        by = {r["metric"]: r for r in rows}
        assert by["sim.launches"]["status"] == "regressed"

    def test_missing_metric_flagged(self):
        base, cur = payload(), payload()
        del cur["metrics"]["wall.cold_s"]
        by = {r["metric"]: r for r in rg.compare(base, cur)}
        assert by["wall.cold_s"]["status"] == "missing"

    def test_accepts_both_metric_shapes(self):
        # BENCH payload {..{"value": v}..} vs history record {..: v}
        rows = rg.compare(history_record(payload()), payload())
        assert {r["status"] for r in rows} == {"ok"}


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(payload(), path)
        append_history(payload(**{"sim.kernel_seconds": 2.0}), path)
        records = load_history(path)
        assert len(records) == 2
        assert records[0]["metrics"]["sim.kernel_seconds"] == 1.0
        assert records[1]["metrics"]["sim.kernel_seconds"] == 2.0
        assert records[0]["tag"] == "t" and records[0]["size"] == "small"

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(payload(), path)
        with open(path, "a") as f:
            f.write('{"schema": 1, "torn')
        assert len(load_history(path)) == 1

    def test_append_after_torn_tail_survives(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(payload(), path)
        with open(path, "a") as f:
            f.write('{"schema": 1, "torn')
        append_history(payload(**{"sim.kernel_seconds": 2.0}), path)
        records = load_history(path)
        assert [r["metrics"]["sim.kernel_seconds"] for r in records] == [1.0, 2.0]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []


class TestCli:
    def test_exit_codes_gate_regressions(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(payload()))
        b.write_text(json.dumps(payload(**{"sim.kernel_seconds": 1.25})))
        assert obs_main(["regress", str(a), str(a)]) == 0
        assert obs_main(["regress", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out

    def test_history_mode_compares_last_two(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append_history(payload(), path)
        append_history(payload(**{"sim.kernel_seconds": 1.25}), path)
        assert obs_main(["regress", "--history", str(path)]) == 1
        assert obs_main(
            ["regress", "--history", str(path), "--threshold", "0.5"]
        ) == 0

    def test_history_mode_needs_two_records(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(payload(), path)
        with pytest.raises(SystemExit, match="need >= 2"):
            obs_main(["regress", "--history", str(path)])
