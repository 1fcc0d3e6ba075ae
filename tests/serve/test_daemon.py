"""In-process SweepDaemon behavior: admission, dedup, fencing, chaos.

These tests drive the daemon object directly (no HTTP) with real
worker processes on real (small) units.  The subprocess crash matrix —
``kill -9`` of the whole daemon — lives in ``test_crash_restart.py``.
"""
import json

import pytest

from repro.exec.cache import ResultCache
from repro.exec.unit import make_unit, unit_digest, unit_from_dict
from repro.serve.daemon import SweepDaemon
from repro.serve.wal import UnitEntry, replay, wal_path
from repro.serve.admission import TenantQuota

UNIT = {"benchmark": "Sobel", "api": "cuda", "device": "GTX480",
        "size": "small"}
UNIT2 = {"benchmark": "Sobel", "api": "opencl", "device": "GTX480",
         "size": "small"}


def make_daemon(tmp_path, **kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("hb_interval", 0.3)
    kw.setdefault("backoff", 0.01)
    return SweepDaemon(tmp_path, **kw)


def wal_records(tmp_path, t=None):
    recs = [
        json.loads(line)
        for line in wal_path(tmp_path).read_text().splitlines()
        if line.strip()
    ]
    return [r for r in recs if t is None or r["t"] == t]


class TestLifecycleAndDedup:
    def test_run_dedup_restart_cache_serve(self, tmp_path):
        d = make_daemon(tmp_path).start()
        try:
            out = d.submit("alice", [UNIT])
            assert out.accepted and out["units"] == 1
            assert d.wait_ticket(out["ticket"], 300)
            st = d.ticket_status(out["ticket"])
            assert st["units"] == {"queued": 0, "leased": 0, "done": 1,
                                   "failed": 0}
            assert st["rows"][0]["source"] == "run"
            doc = d.ticket_results_json(out["ticket"])
            assert doc is not None and json.loads(doc)

            # second tenant, same unit: deduped onto the finished entry
            out2 = d.submit("bob", [UNIT])
            assert out2["deduped"] == 1
            assert d.ticket_status(out2["ticket"])["complete"]
            # the deduped ticket renders the *same* canonical bytes
            assert d.ticket_results_json(out2["ticket"]) == doc
        finally:
            summary = d.stop(grace=10)
        assert summary["exit_code"] == 0
        assert summary["state"] == "stopped"

        # a restarted daemon replays the WAL: the unit is already done,
        # so a resubmission dedupes onto the terminal entry
        d2 = make_daemon(tmp_path).start()
        try:
            assert d2.epoch == 2
            out3 = d2.submit("carol", [UNIT])
            assert out3["deduped"] == 1
            assert d2.ticket_status(out3["ticket"])["complete"]
            assert d2.ticket_results_json(out3["ticket"]) == doc
        finally:
            d2.stop(grace=10)
        # exactly one lease ever: the unit simulated once, total
        assert len(wal_records(tmp_path, "lease")) == 1

        # a daemon with no WAL history over the warm cache serves the
        # unit straight from the content-addressed store: no lease
        wal_path(tmp_path).unlink()
        d3 = make_daemon(tmp_path).start()
        try:
            out4 = d3.submit("dave", [UNIT])
            assert out4["cached"] == 1
            assert d3.ticket_status(out4["ticket"])["complete"]
            assert d3.ticket_results_json(out4["ticket"]) == doc
        finally:
            d3.stop(grace=10)
        done = wal_records(tmp_path, "done")
        assert [r["source"] for r in done] == ["cache"]
        assert wal_records(tmp_path, "lease") == []

    def test_default_option_spelling_replays_canonical(self, tmp_path):
        # spelling out Sobel/cuda's default use_constant=False is the same
        # unit: one queue entry, and the WAL replays it under one identity
        canon = make_unit(**UNIT)
        spelled = dict(UNIT, options={"use_constant": False})
        d = make_daemon(tmp_path).start()
        try:
            out = d.submit("alice", [spelled, UNIT])
            assert out.accepted and out["units"] == 1
            assert d.wait_ticket(out["ticket"], 300)
        finally:
            d.stop(grace=10)
        (entry,) = replay(wal_path(tmp_path)).units.values()
        assert entry.digest == unit_digest(canon)
        assert entry.label == canon.label()
        assert unit_from_dict(entry.unit) == canon

    def test_submit_validation(self, tmp_path):
        d = make_daemon(tmp_path).start()
        try:
            assert d.submit("a", []).status == 400
            bad = d.submit("a", [{"benchmark": "NoSuchBench", "api": "cuda",
                                  "device": "GTX480"}])
            assert bad.status == 400 and not bad.accepted
        finally:
            d.stop(grace=5)


class TestAdmission:
    def test_quota_rejection_is_atomic_and_journaled(self, tmp_path):
        d = make_daemon(
            tmp_path, quota=TenantQuota(max_outstanding=1, max_inflight=1)
        ).start()
        try:
            out = d.submit("alice", [UNIT, UNIT2])
            assert out.status == 429
            assert out["error"] == "quota"
            # atomic: nothing from the rejected batch was queued
            assert d.status()["units"] == {"queued": 0, "leased": 0,
                                           "done": 0, "failed": 0}
            assert wal_records(tmp_path, "reject")[0]["tenant"] == "alice"
            # another tenant is unaffected by alice's rejection
            assert d.submit("bob", [UNIT]).status in (200,)
        finally:
            d.stop(grace=30)

    def test_backpressure_bounds_the_queue(self, tmp_path):
        d = make_daemon(tmp_path, queue_bound=1).start()
        try:
            out = d.submit("alice", [UNIT, UNIT2])
            assert out.status == 503
            assert out["error"] == "backpressure"
        finally:
            d.stop(grace=5)

    def test_draining_daemon_rejects_submissions(self, tmp_path):
        d = make_daemon(tmp_path).start()
        try:
            d.drain()
            out = d.submit("alice", [UNIT])
            assert out.status == 503
            assert out["error"] == "draining"
        finally:
            d.stop(grace=5)

    def test_breaker_demotes_crashing_backend(self, tmp_path):
        d = make_daemon(
            tmp_path, breaker_threshold=1, breaker_cooldown=300.0,
            retries=0, faults="raise:*",
        ).start()
        try:
            out = d.submit("alice", [UNIT])
            assert out.accepted
            assert d.wait_ticket(out["ticket"], 300)
            st = d.ticket_status(out["ticket"])
            assert st["units"]["failed"] == 1
            assert st["rows"][0]["injected"] is True
            # the device's breaker tripped open: admission now sheds load
            out2 = d.submit("bob", [UNIT2])
            assert out2.status == 503
            assert out2["error"] == "breaker_open"
            assert "GTX480" in out2["detail"]
            assert wal_records(tmp_path, "breaker")[0]["state"] == "open"
        finally:
            d.stop(grace=30)


class TestFencing:
    def test_late_done_under_stale_token_is_fenced(self, tmp_path):
        d = make_daemon(tmp_path, jobs=1).start()
        try:
            dg = "f" * 16
            with d._work:
                entry = UnitEntry(
                    digest=dg, label="fake/unit", unit={"device": "GTX480"},
                    owner="t", tenants={"t"}, state="leased", attempts=1,
                )
                d._units[dg] = entry
                lease = d.leases.acquire(dg, 1)
                d.wal.record_lease(dg, lease.token, 1)
                # the holder goes silent: force expiry and reap, then
                # park the entry so no dispatcher picks the fake unit up
                lease.deadline = 0.0
                assert d.reap_expired() == 1
                entry.state = "failed"
            # the stale holder phones home with its dead token
            assert d.complete(dg, lease.token, source="run") is False
            fenced = wal_records(tmp_path, "fenced")
            assert fenced and fenced[0]["token"] == lease.token
            assert wal_records(tmp_path, "requeue")[0]["reason"] == "lease-expired"
            # the fenced completion changed nothing
            assert d._units[dg].state == "failed"
        finally:
            d.stop(grace=5)

    def test_next_lease_token_is_higher_after_reclaim(self, tmp_path):
        d = make_daemon(tmp_path, jobs=1).start()
        try:
            dg = "e" * 16
            with d._work:
                d._units[dg] = UnitEntry(
                    digest=dg, label="fake", unit={}, owner="t",
                    tenants={"t"}, state="leased", attempts=1,
                )
                first = d.leases.acquire(dg, 1)
                first.deadline = 0.0
                d.reap_expired()
                d._units[dg].state = "failed"
                second = d.leases.acquire(dg, 2)
                assert second.token > first.token
                d.leases.release(dg, second.token)
        finally:
            d.stop(grace=5)


class TestChaos:
    def test_postkill_worker_death_loses_nothing(self, tmp_path):
        # the worker dies *after* the durable cache put but before its
        # completion report: the daemon must notice the death, find the
        # durable result, and complete — zero lost, zero re-simulated
        d = make_daemon(tmp_path, faults="postkill:*").start()
        try:
            out = d.submit("alice", [UNIT])
            assert d.wait_ticket(out["ticket"], 300)
            st = d.ticket_status(out["ticket"])
            assert st["units"]["done"] == 1
            assert st["rows"][0]["source"] == "run"
        finally:
            d.stop(grace=30)
        # exactly one lease, one done: the death did not duplicate work
        assert len(wal_records(tmp_path, "lease")) == 1
        assert len(wal_records(tmp_path, "done")) == 1
        assert ResultCache(tmp_path).get(unit_digest(
            make_unit(UNIT["benchmark"], UNIT["api"], UNIT["device"],
                      UNIT["size"])
        )) is not None

    def test_transient_fault_retries_with_requeue_records(self, tmp_path):
        d = make_daemon(tmp_path, retries=2,
                        faults="transient:*:1.0:1").start()
        try:
            out = d.submit("alice", [UNIT])
            assert d.wait_ticket(out["ticket"], 300)
            st = d.ticket_status(out["ticket"])
            assert st["units"]["done"] == 1
            assert st["rows"][0]["attempts"] == 2
        finally:
            d.stop(grace=30)
        requeues = wal_records(tmp_path, "requeue")
        assert [r["reason"] for r in requeues] == ["transient"]
        assert len(wal_records(tmp_path, "lease")) == 2

    def test_exhausted_transient_attempts_fail_terminally(self, tmp_path):
        d = make_daemon(tmp_path, retries=1,
                        faults="transient:*:1.0:99").start()
        try:
            out = d.submit("alice", [UNIT])
            assert d.wait_ticket(out["ticket"], 300)
            st = d.ticket_status(out["ticket"])
            assert st["units"]["failed"] == 1
            assert st["rows"][0]["kind"] == "TRANSIENT"
        finally:
            d.stop(grace=30)


class TestRestartReclaim:
    def test_boot_requeues_open_leases_from_wal(self, tmp_path):
        # hand-write the WAL a killed daemon would leave: a submitted
        # unit whose lease was open (and unresolvable) at death
        u = make_unit(**UNIT)
        dg = unit_digest(u)
        from repro.serve.wal import QueueWAL

        with QueueWAL(wal_path(tmp_path)) as w:
            w.record_boot(1, 2)
            w.record_submit("t-dead", "alice", dg, u.label(), {
                "benchmark": u.benchmark, "api": u.api, "device": u.device,
                "size": u.size, "options": [],
            })
            w.record_lease(dg, 5, 1)
        d = make_daemon(tmp_path).start()
        try:
            assert d.epoch == 2
            assert d.reclaimed_on_boot == 1
            # the ticket from the dead boot is still tracked and finishes
            assert d.wait_ticket("t-dead", 300)
            st = d.ticket_status("t-dead")
            assert st["units"]["done"] == 1
            # the replacement lease is fenced above the dead one
            done = wal_records(tmp_path, "done")
            assert done[-1]["token"] > 5
        finally:
            d.stop(grace=30)
        reasons = [r["reason"] for r in wal_records(tmp_path, "requeue")]
        assert "daemon-restart" in reasons
