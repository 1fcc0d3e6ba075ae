"""Workdir garbage collection: compaction, corpses, quarantine aging.

The invariant that matters: gc only touches provably dead artifacts.
A terminal journal compacts to the identical replay classification; a
running/interrupted journal — whose in-flight set resume needs — is
never rewritten.
"""
import json
import os
import time

from repro.exec import journal as jmod
from repro.exec.__main__ import DEFAULT_MAX_AGE_DAYS, gc_run, main
from repro.exec.journal import RunJournal


def make_journal(tmp_path, run_id, state=None):
    j = RunJournal.create(tmp_path, run_id, command="repro.test")
    j.record_plan(2, 2)
    j.record_lease("aaa", "MD/cuda", 1)
    j.record_done("aaa")
    j.record_lease("bbb", "FFT/cuda", 1)
    j.record_heartbeat(5.0, done=1, failed=0)
    if state is not None:
        j.record_done("bbb")
        j.close(state)
    return j


class TestJournalCompaction:
    def test_terminal_journal_drops_start_and_hb(self, tmp_path):
        j = make_journal(tmp_path, "fin", state="complete")
        before = [json.loads(x) for x in j.path.read_text().splitlines()]
        assert {"lease", "hb"} <= {r["t"] for r in before}
        report = gc_run(tmp_path)
        assert report["journals_compacted"] == 1
        assert report["journal_bytes"] > 0
        after = [json.loads(x) for x in j.path.read_text().splitlines()]
        assert {r["t"] for r in after} == {"run", "plan", "done", "state"}

    def test_compacted_journal_replays_identically(self, tmp_path):
        j = make_journal(tmp_path, "fin", state="complete")
        before = jmod.load(j.path)
        gc_run(tmp_path)
        after = jmod.load(j.path)
        assert after.state == before.state == "complete"
        assert after.completed == before.completed
        assert after.failed == before.failed
        # in-flight is vacuous for a terminal run — and stays empty
        assert after.in_flight == set()

    def test_running_journal_untouched(self, tmp_path):
        j = make_journal(tmp_path, "live")  # no state record: maybe alive
        raw = j.path.read_text()
        report = gc_run(tmp_path)
        assert report["journals_compacted"] == 0
        assert j.path.read_text() == raw
        assert jmod.load(j.path).in_flight == {"bbb"}

    def test_interrupted_journal_compacts_but_stays_resumable(self, tmp_path):
        j = RunJournal.create(tmp_path, "intr", command="repro.test")
        j.record_lease("aaa", "MD/cuda", 1)
        j.record_done("aaa")
        # bbb is stranded by the drain; ccc was waiting out a retry
        j.record_lease("bbb", "FFT/cuda", 1)
        j.record_lease("ccc", "BFS/cuda", 1)
        j.record_requeue("ccc", "transient")
        j.close("interrupted")
        before = jmod.load(j.path)
        assert gc_run(tmp_path)["journals_compacted"] == 1
        rep = jmod.load(j.path)
        assert rep.state == "interrupted" and rep.resumable
        assert rep.completed == {"aaa"}
        assert rep.in_flight == before.in_flight == {"bbb"}
        assert rep.summary() == before.summary()

    def test_already_compact_journal_is_a_noop(self, tmp_path):
        j = make_journal(tmp_path, "fin", state="complete")
        gc_run(tmp_path)
        assert gc_run(tmp_path)["journals_compacted"] == 0


class TestCorpsesAndQuarantine:
    def test_tmp_corpses_swept_across_dirs(self, tmp_path):
        make_journal(tmp_path, "fin", state="complete")
        shard = tmp_path / "ab"
        shard.mkdir()
        (shard / "deadbeef.json.tmp.99999").write_text("x" * 64)
        (tmp_path / "metrics").mkdir(exist_ok=True)
        (tmp_path / "metrics" / "run.tmp.99999").write_text("y" * 32)
        report = gc_run(tmp_path)
        assert report["tmp_removed"] == 2
        assert report["tmp_bytes"] == 96
        assert not (shard / "deadbeef.json.tmp.99999").exists()

    def test_own_pid_tmp_files_spared(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir()
        live = shard / f"entry.json.tmp.{os.getpid()}"
        live.write_text("mid-write")
        assert gc_run(tmp_path)["tmp_removed"] == 0
        assert live.exists()

    def test_quarantine_aged_out_with_sidecar(self, tmp_path):
        q = tmp_path / "quarantine"
        q.mkdir()
        old = q / "bad.json"
        old.write_text("{}")
        sidecar = q / "bad.reason"
        sidecar.write_text("torn\n")
        fresh = q / "new.json"
        fresh.write_text("{}")
        past = time.time() - (DEFAULT_MAX_AGE_DAYS + 1) * 86400
        os.utime(old, (past, past))
        os.utime(sidecar, (past, past))
        report = gc_run(tmp_path)
        assert report["quarantine_removed"] == 2
        assert not old.exists() and not sidecar.exists()
        assert fresh.exists()

    def test_max_age_zero_prunes_everything(self, tmp_path):
        q = tmp_path / "quarantine"
        q.mkdir()
        (q / "bad.json").write_text("{}")
        assert gc_run(tmp_path, max_age_days=0.0, now=time.time() + 1)[
            "quarantine_removed"
        ] == 1


class TestMetricsSnapshots:
    def make_snapshot(self, tmp_path, run_id):
        mdir = tmp_path / "metrics"
        mdir.mkdir(exist_ok=True)
        snap = mdir / f"{run_id}.json"
        snap.write_text('{"metrics": {}}')
        return snap

    def test_terminal_run_snapshot_pruned(self, tmp_path):
        make_journal(tmp_path, "fin", state="complete")
        snap = self.make_snapshot(tmp_path, "fin")
        report = gc_run(tmp_path)
        assert report["metrics_removed"] == 1
        assert report["metrics_bytes"] > 0
        assert report["bytes_reclaimed"] >= report["metrics_bytes"]
        assert not snap.exists()

    def test_live_run_snapshot_spared(self, tmp_path):
        # no terminal state record: the run may still be watched live
        make_journal(tmp_path, "live")
        snap = self.make_snapshot(tmp_path, "live")
        report = gc_run(tmp_path)
        assert report["metrics_removed"] == 0
        assert snap.exists()

    def test_journalless_snapshot_ages_out(self, tmp_path):
        # e.g. the serve daemon's liveness snapshot after the daemon is
        # long gone (its journal-free run-id never had a journal)
        snap = self.make_snapshot(tmp_path, "serve")
        past = time.time() - (DEFAULT_MAX_AGE_DAYS + 1) * 86400
        os.utime(snap, (past, past))
        report = gc_run(tmp_path)
        assert report["metrics_removed"] == 1
        assert not snap.exists()

    def test_journalless_fresh_snapshot_spared(self, tmp_path):
        # a live daemon refreshes its snapshot's mtime every heartbeat
        snap = self.make_snapshot(tmp_path, "serve")
        report = gc_run(tmp_path)
        assert report["metrics_removed"] == 0
        assert snap.exists()

    def test_dry_run_spares_snapshots_but_reports(self, tmp_path):
        make_journal(tmp_path, "fin", state="complete")
        snap = self.make_snapshot(tmp_path, "fin")
        report = gc_run(tmp_path, dry_run=True)
        assert report["metrics_removed"] == 1
        assert snap.exists()

    def test_serve_tmp_corpses_swept(self, tmp_path):
        sdir = tmp_path / "serve" / "err"
        sdir.mkdir(parents=True)
        (tmp_path / "serve" / "endpoint.tmp.99999").write_text("x")
        (sdir / "7.tmp.99999").write_text("y")
        report = gc_run(tmp_path)
        assert report["tmp_removed"] == 2
        assert not (sdir / "7.tmp.99999").exists()


class TestDryRunAndCli:
    def test_dry_run_reports_without_deleting(self, tmp_path):
        j = make_journal(tmp_path, "fin", state="complete")
        raw = j.path.read_text()
        shard = tmp_path / "ab"
        shard.mkdir()
        (shard / "x.json.tmp.99999").write_text("x")
        report = gc_run(tmp_path, dry_run=True)
        assert report["bytes_reclaimed"] > 0
        assert j.path.read_text() == raw
        assert (shard / "x.json.tmp.99999").exists()

    def test_cli_json_report(self, tmp_path, capsys):
        make_journal(tmp_path, "fin", state="complete")
        assert main(["gc", "--cache-dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["journals_compacted"] == 1
        assert report["bytes_reclaimed"] == report["journal_bytes"]

    def test_cli_missing_dir_is_clean(self, tmp_path, capsys):
        assert main(["gc", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "reclaimed:  0 bytes" in capsys.readouterr().out
