"""The run journal: durable appends, replay classification, torn tails.

The WAL contract under test: every record survives a crash (append is
flush+fsync), replay classifies digests into completed / failed /
in-flight exactly, a torn final line is skipped rather than fatal, and
``latest_resumable`` finds the newest run that did not complete.
"""
import json

import pytest

from repro import durable
from repro.exec import journal as jmod
from repro.exec.journal import JournalReplay, RunJournal


def lines_of(path):
    return [json.loads(x) for x in path.read_text().splitlines() if x.strip()]


class TestAppend:
    def test_create_writes_run_header(self, tmp_path):
        j = RunJournal.create(
            tmp_path, "run-1", command="repro.test", argv=["--all"]
        )
        recs = lines_of(j.path)
        assert recs[0]["t"] == "run"
        assert recs[0]["run_id"] == "run-1"
        assert recs[0]["command"] == "repro.test"
        assert recs[0]["argv"] == ["--all"]
        assert recs[0]["schema"] == jmod.JOURNAL_SCHEMA
        assert j.path == jmod.journal_dir(tmp_path) / "run-1.jsonl"

    def test_every_append_is_one_durable_line(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        j.record_start("d" * 40, "MD/cuda", attempt=1)
        j.record_done("d" * 40)
        # the file is readable mid-run, without any close/flush help:
        # that is the whole point of a WAL
        recs = lines_of(j.path)
        assert [r["t"] for r in recs] == ["run", "start", "done"]

    def test_close_writes_state_and_is_idempotent(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        j.close("interrupted")
        j.close("complete")  # no-op: already closed
        j.record_done("x")  # no-op after close, never a crash
        recs = lines_of(j.path)
        assert recs[-1]["t"] == "state"
        assert recs[-1]["state"] == "interrupted"

    def test_close_rejects_unknown_state(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        with pytest.raises(ValueError, match="unknown run state"):
            j.close("exploded")

    def test_context_manager_states(self, tmp_path):
        with RunJournal.create(tmp_path, "clean"):
            pass
        assert jmod.load(jmod.resolve(tmp_path, "clean")).state == "complete"
        with pytest.raises(RuntimeError):
            with RunJournal.create(tmp_path, "boom"):
                raise RuntimeError("x")
        assert jmod.load(jmod.resolve(tmp_path, "boom")).state == "failed"


class TestReplay:
    def _journal(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1", command="repro.benchsuite")
        j.record_plan(4, 3)
        j.record_start("aaa", "MD/cuda")
        j.record_done("aaa")
        j.record_start("bbb", "FFT/cuda")
        j.record_fail("bbb", "CRASH", injected=True)
        j.record_start("ccc", "Sobel/opencl")
        # ccc: started, never finished — the process dies here
        return j

    def test_classification(self, tmp_path):
        j = self._journal(tmp_path)
        rep = jmod.load(j.path)
        assert rep.run_id == "run-1"
        assert rep.command == "repro.benchsuite"
        assert rep.completed == {"aaa"}
        assert rep.failed == {"bbb": "CRASH"}
        assert rep.in_flight == {"ccc"}
        assert rep.labels["ccc"] == "Sobel/opencl"
        assert rep.state == "running"  # killed outright: no state record
        assert rep.resumable
        assert rep.torn_lines == 0

    def test_done_after_fail_wins(self, tmp_path):
        # a retry that succeeds after a recorded failure ends completed
        j = RunJournal.create(tmp_path, "run-1")
        j.record_start("aaa", "MD/cuda", attempt=1)
        j.record_fail("aaa", "TRANSIENT")
        j.record_start("aaa", "MD/cuda", attempt=2)
        j.record_done("aaa")
        rep = jmod.load(j.path)
        assert rep.completed == {"aaa"}
        assert rep.failed == {} and rep.in_flight == set()

    def test_settled_unit_never_back_in_flight(self, tmp_path):
        # a later start does not reopen a done or failed unit, and the
        # status tracker folds the journal to the same sets
        from repro.obs import RunTracker

        j = RunJournal.create(tmp_path, "run-1")
        j.record_start("aaa", "MD/cuda")
        j.record_done("aaa")
        j.record_start("aaa", "MD/cuda")
        j.record_start("bbb", "FFT/cuda")
        j.record_fail("bbb", "CRASH", injected=True)
        j.record_start("bbb", "FFT/cuda")
        rep = jmod.load(j.path)
        assert rep.in_flight == set() and rep.injected == {"bbb"}
        s = RunTracker(j.path).poll().status()
        assert (s.done, s.failed, s.in_flight, s.injected_failures) == (1, 1, 0, 1)

    def test_torn_tail_tolerated(self, tmp_path):
        j = self._journal(tmp_path)
        with open(j.path, "a") as f:
            f.write('{"t": "done", "d": "cc')  # the write the kill cut short
        rep = jmod.load(j.path)
        assert rep.torn_lines == 1
        assert rep.in_flight == {"ccc"}  # the torn done never happened

    def test_complete_run_not_resumable(self, tmp_path):
        j = self._journal(tmp_path)
        j.close("complete")
        rep = jmod.load(j.path)
        assert rep.state == "complete" and not rep.resumable

    def test_interrupted_run_resumable(self, tmp_path):
        j = self._journal(tmp_path)
        j.close("interrupted")
        rep = jmod.load(j.path)
        assert rep.state == "interrupted" and rep.resumable

    def test_demote_record_round_trips(self, tmp_path):
        j = self._journal(tmp_path)
        j.record_demote(3, "worker death broke the pool")
        assert jmod.load(j.path).demoted

    def test_summary_shape(self, tmp_path):
        rep = jmod.load(self._journal(tmp_path).path)
        assert rep.summary() == {
            "from": "run-1",
            "state": "running",
            "completed": 1,
            "failed": 1,
            "in_flight": 1,
            "torn_lines": 0,
        }

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            jmod.load(tmp_path / "nope.jsonl")


class TestHeartbeat:
    def test_record_heartbeat_carries_progress(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        j.record_heartbeat(5.0, done=3, failed=1)
        hb = [r for r in lines_of(j.path) if r["t"] == "hb"][0]
        assert hb["interval"] == 5.0
        assert hb["done"] == 3 and hb["failed"] == 1
        assert hb["pid"] > 0 and hb["unix"] > 0

    def test_replay_ignores_heartbeats(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        j.record_start("aaa", "MD/cuda")
        j.record_heartbeat(5.0, done=0, failed=0)
        j.record_done("aaa")
        rep = jmod.load(j.path)
        assert rep.completed == {"aaa"}
        assert rep.torn_lines == 0  # hb is a known record, not noise

    def test_thread_beats_until_close(self, tmp_path):
        import time

        j = RunJournal.create(tmp_path, "run-1")
        flushes = []
        assert j.start_heartbeat(
            0.02, stats_fn=lambda: {"done": 7}, flush_fn=lambda: flushes.append(1)
        )
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if any(r["t"] == "hb" for r in lines_of(j.path)):
                break
            time.sleep(0.02)
        j.close("complete")
        beats = [r for r in lines_of(j.path) if r["t"] == "hb"]
        assert beats and beats[0]["done"] == 7
        assert flushes  # at minimum the final close-time flush ran
        # the thread is stopped: no beats land after close
        n = len(beats)
        time.sleep(0.1)
        assert len([r for r in lines_of(j.path) if r["t"] == "hb"]) == n

    def test_zero_interval_disables_thread(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        assert not j.start_heartbeat(0)
        assert j._hb_thread is None
        j.close("complete")

    def test_start_is_idempotent(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        assert j.start_heartbeat(60.0)
        first = j._hb_thread
        assert not j.start_heartbeat(60.0)
        assert j._hb_thread is first
        j.close("complete")

    def test_heartbeat_interval_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_S", raising=False)
        assert durable.heartbeat_interval() == durable.DEFAULT_HEARTBEAT_S
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0.25")
        assert durable.heartbeat_interval() == 0.25
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "bogus")
        assert durable.heartbeat_interval() == durable.DEFAULT_HEARTBEAT_S

    def test_heartbeat_interval_rejects_non_positive(self, monkeypatch):
        # liveness (and serve lease TTLs) derive from this interval, so
        # zero/negative/NaN must fall back to the default, not disable
        for bad in ("0", "-3", "0.0", "nan", "-inf"):
            monkeypatch.setenv("REPRO_HEARTBEAT_S", bad)
            assert durable.heartbeat_interval() == durable.DEFAULT_HEARTBEAT_S

    def test_heartbeat_interval_warns_once_per_value(self, monkeypatch, capsys):
        durable._HB_WARNED.discard("-7")
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "-7")
        assert durable.heartbeat_interval() == durable.DEFAULT_HEARTBEAT_S
        first = capsys.readouterr().err
        assert "REPRO_HEARTBEAT_S" in first
        assert durable.heartbeat_interval() == durable.DEFAULT_HEARTBEAT_S
        assert "REPRO_HEARTBEAT_S" not in capsys.readouterr().err


class TestResumeResolution:
    def test_latest_resumable_picks_newest_incomplete(self, tmp_path):
        import os

        a = RunJournal.create(tmp_path, "old-run")
        a.record_start("aaa", "x")
        b = RunJournal.create(tmp_path, "done-run")
        b.close("complete")
        c = RunJournal.create(tmp_path, "new-run")
        c.record_start("bbb", "y")
        # force a strict mtime order regardless of filesystem resolution
        os.utime(a.path, (1, 1))
        os.utime(b.path, (3, 3))
        os.utime(c.path, (2, 2))
        rep = jmod.latest_resumable(tmp_path)
        assert rep is not None and rep.run_id == "new-run"

    def test_latest_resumable_empty_dir(self, tmp_path):
        assert jmod.latest_resumable(tmp_path) is None

    def test_open_resume_by_id(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-7")
        j.record_start("aaa", "x")
        j.close("interrupted")
        rep = jmod.open_resume(tmp_path, "run-7")
        assert rep.run_id == "run-7" and rep.in_flight == {"aaa"}

    def test_open_resume_auto(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-8")
        j.record_start("aaa", "x")
        j.close("interrupted")
        assert jmod.open_resume(tmp_path, "auto").run_id == "run-8"

    def test_open_resume_missing_id_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal"):
            jmod.open_resume(tmp_path, "never-ran")

    def test_open_resume_auto_nothing_resumable_exits(self, tmp_path):
        RunJournal.create(tmp_path, "fin").close("complete")
        with pytest.raises(SystemExit, match="no resumable journal"):
            jmod.open_resume(tmp_path, "auto")

    def test_resumable_default(self):
        assert JournalReplay(run_id="x", path=None).resumable
        assert not JournalReplay(run_id="x", path=None, state="complete").resumable
