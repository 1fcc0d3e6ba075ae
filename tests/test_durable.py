"""The shared durable-file primitive: atomic replace, logs, readers, beats."""
import json
import os
import time

import pytest

from repro import durable


class TestAtomicWrite:
    def test_replaces_content_and_creates_parent(self, tmp_path):
        path = tmp_path / "sub" / "doc.json"
        durable.atomic_write(path, "old")
        durable.atomic_write(path, "new")
        assert path.read_text() == "new"
        assert list(path.parent.iterdir()) == [path]

    def test_failed_write_keeps_old_content_and_no_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        durable.atomic_write(path, "old")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            durable.atomic_write(path, "new")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_fsync_error_alone_is_tolerated(self, tmp_path, monkeypatch):
        def no_fsync(fd):
            raise OSError("fsync unsupported")

        monkeypatch.setattr(durable.os, "fsync", no_fsync)
        path = durable.atomic_write(tmp_path / "doc.json", "x")
        assert path.read_text() == "x"

    def test_tmp_corpses_skip_this_process(self, tmp_path):
        dead = tmp_path / "a.tmp.99999999"
        own = tmp_path / f"b.tmp.{os.getpid()}"
        dead.write_text("x")
        own.write_text("y")
        assert durable.tmp_corpses(tmp_path, "*.tmp.*") == [dead]


class TestLog:
    def test_appends_compact_sorted_lines_and_counts(self, tmp_path):
        from repro.telemetry import metrics

        with metrics.use_registry() as reg:
            with durable.Log(tmp_path / "l.jsonl", "t.appends", "t.append_s") as log:
                log.append({"b": 1, "a": [1, 2]})
            assert reg.get("t.appends").value == 1
            assert reg.get("t.append_s").count == 1
        assert (tmp_path / "l.jsonl").read_text() == '{"a":[1,2],"b":1}\n'

    def test_append_after_close_is_dropped(self, tmp_path):
        log = durable.Log(tmp_path / "l.jsonl")
        log.close()
        log.append({"t": "late"})
        assert (tmp_path / "l.jsonl").read_text() == ""

    def test_reopen_terminates_a_torn_tail(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with durable.Log(path) as log:
            log.append({"n": 1})
        with open(path, "a") as f:
            f.write('{"n": 2, "cut')
        with durable.Log(path) as log:
            log.append({"n": 3})
            log.append({"n": 4})
        records, torn = durable.replay(path)
        assert [r["n"] for r in records] == [1, 3, 4]
        assert torn == 1


#: the same bytes read whole and incrementally: (file bytes, expected
#: record count, expected torn lines)
CASES = {
    "mid_file_corrupt": (b'{"n":1}\nnot json\n{"n":2}\n', 2, 1),
    "torn_tail": (b'{"n":1}\n{"n":2}\n{"n":3,"cu', 2, 1),
    "repaired_tail": (b'{"n":1}\n{"n":2,"cu\n{"n":3}\n', 2, 1),
    "non_object_line": (b'{"n":1}\n[1,2]\n', 1, 1),
}


class TestReaders:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_replay_and_follower_agree(self, tmp_path, case):
        data, n_records, n_torn = CASES[case]
        path = tmp_path / "l.jsonl"
        path.write_bytes(data)
        records, torn = durable.replay(path)
        assert (len(records), torn) == (n_records, n_torn)

        # a follower polling byte by byte as the file grows, then making
        # the final poll a whole-file replay makes, sees the same thing
        path.write_bytes(b"")
        fo = durable.Follower(path)
        seen = []
        for i in range(len(data)):
            with open(path, "ab") as f:
                f.write(data[i:i + 1])
            seen += fo.poll()
        with open(path, "rb") as f:
            f.seek(fo.offset)
            seen += fo.feed(f.read(), final=True)
        assert seen == records
        assert fo.torn_lines == torn

    def test_follower_leaves_torn_tail_pending(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_bytes(b'{"n":1}\n{"n":2')
        fo = durable.Follower(path)
        assert fo.poll() == [{"n": 1}]
        assert fo.torn_lines == 0 and fo.offset == len(b'{"n":1}\n')

    def test_replay_raises_on_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            durable.replay(tmp_path / "nope.jsonl")
        assert durable.Follower(tmp_path / "nope.jsonl").poll() == []

    def test_log_output_round_trips(self, tmp_path):
        path = tmp_path / "l.jsonl"
        recs = [{"t": "x", "f": 0.1, "s": "é"}, {"t": "y", "n": None}]
        with durable.Log(path) as log:
            for r in recs:
                log.append(r)
        assert durable.replay(path) == (recs, 0)
        assert path.read_text() == "".join(durable.encode(r) for r in recs)
        assert [json.loads(x) for x in path.read_text().splitlines()] == recs


class TestEvery:
    def test_beats_until_stopped(self):
        calls = []
        beat = durable.every(0.01, lambda: calls.append(1))
        deadline = time.time() + 5.0
        while len(calls) < 3 and time.time() < deadline:
            time.sleep(0.01)
        beat.stop()
        assert not beat.is_alive()
        n = len(calls)
        assert n >= 3
        time.sleep(0.05)
        assert len(calls) == n

    def test_survives_exceptions_from_fn(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first beat fails")

        beat = durable.every(0.01, flaky)
        deadline = time.time() + 5.0
        while len(calls) < 3 and time.time() < deadline:
            time.sleep(0.01)
        beat.stop()
        assert len(calls) >= 3
        assert not beat.is_alive()
