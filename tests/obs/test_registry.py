"""Journal following + run-status derivation, out of process.

The contract under test: the follower consumes only newline-terminated
lines (a writer's torn tail is invisible until completed), and the
tracker derives the same unit classification as journal replay while
adding what replay doesn't need — progress, ETA, throughput, and
heartbeat-based liveness.
"""
import json

import pytest

from repro.exec.journal import RunJournal, journal_dir
from repro.obs import JournalFollower, RunTracker, find_run, runs
from repro.obs.registry import STALE_BEATS


def write_lines(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


class TestJournalFollower:
    def test_incremental_reads(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [{"t": "run"}, {"t": "plan"}])
        fo = JournalFollower(path)
        assert [r["t"] for r in fo.poll()] == ["run", "plan"]
        assert fo.poll() == []  # nothing new
        write_lines(path, [{"t": "done", "d": "x"}])
        assert [r["t"] for r in fo.poll()] == ["done"]

    def test_torn_tail_not_consumed_until_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [{"t": "run"}])
        with open(path, "a") as f:
            f.write('{"t": "done", "d": "ab')  # mid-append
        fo = JournalFollower(path)
        assert [r["t"] for r in fo.poll()] == ["run"]
        assert fo.torn_lines == 0  # partial tail is pending, not torn
        with open(path, "a") as f:
            f.write('c"}\n')  # the append completes
        assert [r["t"] for r in fo.poll()] == ["done"]

    def test_complete_but_corrupt_line_counted_and_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_lines(path, [{"t": "run"}])
        with open(path, "a") as f:
            f.write("not json at all\n")
        write_lines(path, [{"t": "plan"}])
        fo = JournalFollower(path)
        assert [r["t"] for r in fo.poll()] == ["run", "plan"]
        assert fo.torn_lines == 1

    def test_missing_file_is_empty_not_fatal(self, tmp_path):
        assert JournalFollower(tmp_path / "nope.jsonl").poll() == []


def demo_journal(tmp_path, run_id="demo", hb_unix=None, close=None):
    """A 6-unit run: 2 cached, 1 done, 1 failed, 1 in-flight, 1 queued."""
    path = journal_dir(tmp_path) / f"{run_id}.jsonl"
    recs = [
        {"t": "run", "run_id": run_id, "command": "repro.benchsuite",
         "pid": 4242, "resumed_from": None, "unix": 1000.0},
        {"t": "plan", "units": 6, "todo": 4, "unix": 1000.5},
        {"t": "start", "d": "aaa", "label": "MD/cuda", "unix": 1001.0},
        {"t": "done", "d": "aaa", "source": "run", "unix": 1003.0},
        {"t": "start", "d": "bbb", "label": "FFT/cuda", "unix": 1003.5},
        {"t": "fail", "d": "bbb", "kind": "CRASH", "injected": True,
         "unix": 1004.0},
        {"t": "start", "d": "ccc", "label": "Sobel/opencl", "unix": 1004.5},
    ]
    if hb_unix is not None:
        recs.append({"t": "hb", "unix": hb_unix, "pid": 4242,
                     "interval": 5.0, "done": 1, "failed": 1})
    if close is not None:
        recs.append({"t": "state", "state": close, "unix": 1006.0})
    write_lines(path, recs)
    return path


class TestRunTracker:
    def test_unit_accounting(self, tmp_path):
        s = RunTracker(demo_journal(tmp_path)).poll().status(now=1005.0)
        assert s.run_id == "demo"
        assert s.command == "repro.benchsuite"
        assert s.pid == 4242
        assert (s.planned, s.cached, s.done, s.failed) == (6, 2, 1, 1)
        assert (s.in_flight, s.queued) == (1, 1)
        assert s.progress_pct == pytest.approx(100.0 * 4 / 6)
        assert s.fail_kinds == {"CRASH": 1}
        assert s.injected_failures == 1

    def test_eta_and_throughput_from_record_timestamps(self, tmp_path):
        s = RunTracker(demo_journal(tmp_path)).poll().status(now=1005.0)
        # one completed unit took 2.0s -> 2 remaining units ~ 4.0s
        assert s.eta_s == pytest.approx(4.0)
        # 1 done over the 3.0s between run header and its done record
        assert s.throughput_ups == pytest.approx(1.0 / 3.0)

    def test_done_after_fail_wins(self, tmp_path):
        path = demo_journal(tmp_path)
        write_lines(path, [
            {"t": "start", "d": "bbb", "label": "FFT/cuda", "unix": 1005.0},
            {"t": "done", "d": "bbb", "source": "run", "unix": 1006.0},
        ])
        s = RunTracker(path).poll().status(now=1006.0)
        assert (s.done, s.failed) == (2, 0)
        assert s.fail_kinds == {}

    def test_terminal_state_has_no_liveness(self, tmp_path):
        path = demo_journal(tmp_path, hb_unix=1005.0, close="complete")
        s = RunTracker(path).poll().status(now=99999.0)
        assert s.state == "complete"
        assert s.live is None
        assert s.stale_units == []
        assert s.eta_s is None  # nothing left to estimate for a closed run

    def test_fresh_heartbeat_means_live(self, tmp_path):
        path = demo_journal(tmp_path, hb_unix=1005.0)
        s = RunTracker(path).poll().status(now=1005.0 + 5.0)
        assert s.live is True
        assert s.heartbeat_age_s == pytest.approx(5.0)
        assert s.heartbeat_interval_s == 5.0
        assert s.stale_units == []

    def test_missed_heartbeats_mean_stale(self, tmp_path):
        path = demo_journal(tmp_path, hb_unix=1005.0)
        s = RunTracker(path).poll().status(
            now=1005.0 + STALE_BEATS * 5.0 + 0.1
        )
        assert s.live is False
        # the dead run's in-flight unit is exactly what --resume re-runs
        assert s.stale_units == ["Sobel/opencl"]

    def test_no_heartbeat_falls_back_to_record_age(self, tmp_path):
        path = demo_journal(tmp_path)  # schema-1 style: no hb records
        assert RunTracker(path).poll().status(now=1005.0).live is True
        assert RunTracker(path).poll().status(now=99999.0).live is False

    def test_resumed_plan_replaces_original(self, tmp_path):
        path = demo_journal(tmp_path)
        write_lines(path, [{"t": "plan", "units": 6, "todo": 2,
                            "unix": 1010.0}])
        s = RunTracker(path).poll().status(now=1010.0)
        assert (s.planned, s.cached) == (6, 4)

    def test_tracker_tolerates_real_journal(self, tmp_path):
        j = RunJournal.create(tmp_path, "real", command="repro.test")
        j.record_plan(2, 2)
        j.record_lease("aaa", "MD/cuda", 1)
        j.record_done("aaa")
        j.close("interrupted")
        s = RunTracker(j.path).poll().status()
        assert s.state == "interrupted"
        assert (s.done, s.in_flight) == (1, 0)


class TestDiscovery:
    def test_runs_sorted_newest_first(self, tmp_path):
        demo_journal(tmp_path, run_id="older")
        path = demo_journal(tmp_path, run_id="newer")
        write_lines(path, [{"t": "hb", "unix": 2000.0, "interval": 5.0}])
        assert [t.run_id for t in runs(tmp_path)] == ["newer", "older"]

    def test_find_run_latest_and_by_id(self, tmp_path):
        demo_journal(tmp_path, run_id="only")
        assert find_run(tmp_path, None).run_id == "only"
        assert find_run(tmp_path, "latest").run_id == "only"
        assert find_run(tmp_path, "only").run_id == "only"

    def test_find_run_missing_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no run journals"):
            find_run(tmp_path, None)
        demo_journal(tmp_path, run_id="only")
        with pytest.raises(SystemExit, match="no journal for run"):
            find_run(tmp_path, "never-ran")
