"""The daemon queue WAL: durable appends, torn-tolerant replay, fencing floor."""
import json

from repro.serve.wal import QueueWAL, UnitEntry, replay, serve_dir, wal_path

UNIT = {"benchmark": "Sobel", "api": "cuda", "device": "GTX480",
        "size": "small", "options": []}


def make_wal(tmp_path):
    return QueueWAL(wal_path(tmp_path))


class TestAppendReplay:
    def test_paths_live_under_serve_dir(self, tmp_path):
        assert wal_path(tmp_path).parent == serve_dir(tmp_path)

    def test_empty_or_missing_wal_replays_empty(self, tmp_path):
        rep = replay(wal_path(tmp_path))
        assert rep.units == {} and rep.tickets == {}
        assert rep.epoch == 0 and rep.next_token == 1

    def test_submit_lease_done_roundtrip(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_boot(1, 4)
            w.record_submit("t-1", "alice", "d1", "Sobel/cuda", UNIT)
            w.record_lease("d1", "l", 1, 1)
            w.record_done("d1", "run", 1)
        rep = replay(wal_path(tmp_path))
        assert rep.epoch == 1
        assert rep.units["d1"].state == "done"
        assert rep.units["d1"].source == "run"
        assert rep.open_leases == {}
        assert rep.tickets["t-1"].digests == ["d1"]
        assert rep.tickets["t-1"].tenant == "alice"

    def test_open_lease_survives_replay(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_boot(1, 4)
            w.record_submit("t-1", "alice", "d1", "Sobel/cuda", UNIT)
            w.record_lease("d1", "l", 1, 3)
        rep = replay(wal_path(tmp_path))
        assert rep.open_leases == {"d1": 3}
        assert rep.units["d1"].state == "leased"
        assert rep.queued_digests() == ["d1"]

    def test_requeue_returns_unit_to_queue(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_submit("t-1", "a", "d1", "l", UNIT)
            w.record_lease("d1", "l", 1, 1)
            w.record_requeue("d1", "lease-expired", 1)
        rep = replay(wal_path(tmp_path))
        assert rep.units["d1"].state == "queued"
        assert rep.open_leases == {}

    def test_next_token_floor_covers_every_token_ever_seen(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_submit("t-1", "a", "d1", "l", UNIT)
            w.record_lease("d1", "l", 1, 7)
            w.record_requeue("d1", "x", 7)
            w.record_lease("d1", "l", 2, 9)
            w.record_done("d1", "run", 9)
        rep = replay(wal_path(tmp_path))
        # tokens are never reused, not even after the holder finished
        assert rep.next_token == 10

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_boot(1, 2)
            w.record_submit("t-1", "a", "d1", "l", UNIT)
        with open(wal_path(tmp_path), "a") as f:
            f.write('{"t": "lease", "d": "d1", "tok')  # kill -9 mid-append
        rep = replay(wal_path(tmp_path))
        assert rep.torn_lines == 1
        assert rep.units["d1"].state == "queued"

    def test_first_record_after_torn_tail_survives(self, tmp_path):
        # a restart after kill -9 mid-append must not glue its boot
        # record onto the fragment: the epoch would stay 1 and the next
        # restart would reuse epoch 2
        with make_wal(tmp_path) as w:
            w.record_boot(1, 2)
        with open(wal_path(tmp_path), "a") as f:
            f.write('{"t": "lease", "d": "d1", "tok')
        with make_wal(tmp_path) as w:
            w.record_boot(2, 2)
        rep = replay(wal_path(tmp_path))
        assert rep.epoch == 2
        assert rep.torn_lines == 1

    def test_boot_resets_terminal_state(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_boot(1, 2)
            w.record_state("stopped")
            w.record_boot(2, 2)
        rep = replay(wal_path(tmp_path))
        assert rep.state == "running"
        assert rep.epoch == 2

    def test_records_are_compact_sorted_json(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_boot(1, 2)
        line = wal_path(tmp_path).read_text().splitlines()[0]
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))

    def test_fenced_and_reject_are_audit_only(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_submit("t-1", "a", "d1", "l", UNIT)
            w.record_reject("b", "quota", 3)
            # as a daemon that still fenced late completions wrote it
            w.append({"t": "fenced", "d": "d1", "token": 42, "unix": 0.0})
        rep = replay(wal_path(tmp_path))
        assert rep.units["d1"].state == "queued"
        # only lease records mint tokens; fenced records mention one
        # that some lease record already covered
        assert rep.next_token == 1

    def test_heartbeat_progress_survives_replay(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_heartbeat(0.5, queued=2, leased=1, done=3, failed=0)
        rep = replay(wal_path(tmp_path))
        assert rep.last_heartbeat["done"] == 3
        assert rep.last_heartbeat["interval"] == 0.5

    def test_unit_entry_tracks_fanin(self, tmp_path):
        with make_wal(tmp_path) as w:
            w.record_submit("t-1", "alice", "d1", "l", UNIT)
            w.record_submit("t-2", "bob", "d1", "l", UNIT)
        rep = replay(wal_path(tmp_path))
        e = rep.units["d1"]
        assert isinstance(e, UnitEntry)
        assert e.owner == "alice"  # first submitter is charged
        assert e.tenants == {"alice", "bob"}
        assert e.tickets == {"t-1", "t-2"}


class TestLiveFold:
    def test_appends_from_many_threads_fold_like_a_replay(self, tmp_path):
        # the daemon's threads and its heartbeat append concurrently; the
        # live fold must count and apply every record the file holds
        import sys
        import threading

        threads, per = 6, 15

        def appender(w, i):
            for k in range(per):
                token = i * per + k + 1
                w.record_lease(f"d{i}", "l", k + 1, token)
                w.record_heartbeat(1.0, beat=k)
                w.record_requeue(f"d{i}", "x", token)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_wal(tmp_path) as w:
                for i in range(threads):
                    w.record_submit("t-1", "a", f"d{i}", "l", UNIT)
                workers = [threading.Thread(target=appender, args=(w, i))
                           for i in range(threads)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in workers)
        rep = replay(wal_path(tmp_path))
        assert w.replay.records == rep.records == threads * (1 + 3 * per)
        assert w.replay.next_token == rep.next_token == threads * per + 1
        assert {d: u.state for d, u in w.replay.units.items()} == {
            d: u.state for d, u in rep.units.items()
        }
