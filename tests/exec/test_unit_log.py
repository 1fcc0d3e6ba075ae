"""One unit-lifecycle log: both front ends' formats fold the same way.

Run journals and the daemon's queue WAL share one record vocabulary and
one fold (:func:`repro.exec.journal.fold`).  The contract under test:
the same unit records fold to the same unit state in either file; a
durable ``done`` wins over any ``fail``; and logs written before the
formats were shared (a journal's ``start`` and ``demote`` records, a
WAL's expired and fenced leases) still fold to what they folded to
then, as does every prefix of them, torn or not.
"""
import json
import pathlib

import pytest

from repro.exec import journal as jmod
from repro.exec.journal import RunJournal
from repro.serve import wal as wmod
from repro.serve.wal import QueueWAL

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
UNIT = {"benchmark": "Sobel", "api": "cuda", "device": "GTX480",
        "size": "small", "options": []}


def unit_view(rep):
    return {
        d: (u.state, u.attempts, u.kind, u.injected)
        for d, u in sorted(rep.units.items())
    }


class TestOneTerminalRule:
    # x fails, then a later attempt is done; y is done, then a stray
    # failure lands; z fails; w is in flight; v waits out a retry
    SEQUENCE = [
        ("lease", "x", 1), ("fail", "x"), ("lease", "x", 2), ("done", "x"),
        ("lease", "y", 1), ("done", "y"), ("fail", "y"),
        ("lease", "z", 1), ("fail", "z"),
        ("lease", "w", 1),
        ("lease", "v", 1), ("requeue", "v"),
    ]

    def test_journal_and_wal_fold_the_same_sequence(self, tmp_path):
        j = RunJournal.create(tmp_path, "run-1")
        with QueueWAL(wmod.wal_path(tmp_path)) as w:
            for d in "xyzwv":
                w.record_submit("t-1", "alice", d, d, UNIT)
            for token, (t, d, *attempt) in enumerate(self.SEQUENCE, 1):
                for log, tok in ((j, None), (w, token)):
                    if t == "lease":
                        log.record_lease(d, d, attempt[0], tok)
                    elif t == "done":
                        log.record_done(d, "run", tok)
                    elif t == "fail":
                        log.record_fail(d, "CRASH", token=tok)
                    else:
                        log.record_requeue(d, "transient", tok)
        j.close("interrupted")
        jr = jmod.load(j.path)
        wr = wmod.replay(wmod.wal_path(tmp_path))
        assert unit_view(jr) == unit_view(wr)
        assert jr.completed == wr.completed == {"x", "y"}
        assert jr.failed == wr.failed == {"z": "CRASH"}
        assert jr.in_flight == set(wr.open_leases) == {"w"}
        assert jr.units["v"].state == wr.units["v"].state == "queued"


# -- logs written before the formats were shared ----------------------------
#: what the fixtures folded to when they were written
PARENT_SUMMARIES = {
    "parent_journal.jsonl": {
        "from": "parent-run", "state": "interrupted", "completed": 1,
        "failed": 1, "in_flight": 2, "torn_lines": 0,
    },
    "parent_queue.jsonl": {
        "epoch": 1, "state": "running", "units": 2, "tickets": 1,
        "open_leases": 1, "by_state": {"done": 1, "leased": 1},
        "torn_lines": 0,
    },
}
LOADERS = {
    "parent_journal.jsonl": jmod.load,
    "parent_queue.jsonl": wmod.replay,
}


def unsettled_leases(records):
    """The oracle: every lease no later record settled or requeued."""
    open_, settled = {}, set()
    for r in records:
        t, d = r.get("t"), r.get("d")
        if t in ("lease", "start") and d not in settled:
            open_[d] = r.get("token")
        elif t in ("done", "fail"):
            settled.add(d)
            open_.pop(d, None)
        elif t == "requeue":
            open_.pop(d, None)
    return open_


@pytest.mark.parametrize("name", sorted(PARENT_SUMMARIES))
def test_parent_format_folds_to_parent_summary(name):
    assert LOADERS[name](FIXTURES / name).summary() == PARENT_SUMMARIES[name]


@pytest.mark.parametrize("name", sorted(PARENT_SUMMARIES))
def test_every_prefix_folds_consistently(name, tmp_path):
    load = LOADERS[name]
    lines = (FIXTURES / name).read_bytes().splitlines(keepends=True)
    path = tmp_path / name
    done_before: set = set()
    for n in range(len(lines) + 1):
        body = b"".join(lines[:n])
        path.write_bytes(body)
        rep = load(path)
        records = [json.loads(x) for x in lines[:n]]
        assert rep.torn_lines == 0
        assert not rep.completed & set(rep.failed), n
        assert done_before <= rep.completed, n
        assert rep.open_leases == unsettled_leases(records), n
        done_before = rep.completed
        if n < len(lines):
            # the same prefix with the next append cut short by a kill
            path.write_bytes(body + lines[n][: len(lines[n]) // 2])
            torn = load(path)
            assert torn.torn_lines == 1
            assert unit_view(torn) == unit_view(rep), n
            assert torn.open_leases == rep.open_leases, n
