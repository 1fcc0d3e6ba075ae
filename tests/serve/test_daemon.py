"""In-process SweepDaemon behavior: admission, dedup, chaos, restart.

These tests drive the daemon object directly (no HTTP) with real
worker processes on real (small) units.  The subprocess crash matrix —
``kill -9`` of the whole daemon — lives in ``test_crash_restart.py``.
"""
import json
import pathlib
import time

import pytest

from repro.exec.cache import ResultCache
from repro.exec.unit import make_unit, unit_digest, unit_from_dict
from repro.serve.daemon import SweepDaemon
from repro.serve.wal import replay, wal_path
from repro.serve.admission import TenantQuota

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

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

    def test_inflight_cap_holds_at_dispatch(self, tmp_path):
        # two dispatchers but one in-flight lease per tenant: alice's
        # three units run one at a time, bob's runs beside one of them
        alice = [UNIT, UNIT2, {**UNIT, "benchmark": "TranP"}]
        bob = [{**UNIT, "benchmark": "Reduce"}]
        d = make_daemon(
            tmp_path, jobs=2, quota=TenantQuota(max_inflight=1)
        ).start()
        try:
            tickets = [d.submit("alice", alice)["ticket"],
                       d.submit("bob", bob)["ticket"]]
            assert all(d.wait_ticket(t, 300) for t in tickets)
        finally:
            d.stop(grace=30)
        owner = {r["d"]: r["tenant"] for r in wal_records(tmp_path, "submit")}
        open_leases = {"alice": 0, "bob": 0}
        most = dict(open_leases)
        for r in wal_records(tmp_path):
            if r["t"] == "lease":
                tenant = owner[r["d"]]
                open_leases[tenant] += 1
                most[tenant] = max(most[tenant], open_leases[tenant])
            elif r["t"] in ("done", "fail", "requeue"):
                open_leases[owner[r["d"]]] -= 1
        assert most == {"alice": 1, "bob": 1}
        done = wal_records(tmp_path, "done")
        assert len(done) == 4 and {r["source"] for r in done} == {"run"}
        assert not wal_records(tmp_path, "fail")

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


class TestDispatchError:
    def test_failed_callback_stops_admission_and_reports_the_error(self, tmp_path):
        # a callback that raises leaves the core's error set and every
        # dispatcher thread gone: the daemon must say so and stop
        # admitting work nothing would run
        d = make_daemon(tmp_path, jobs=1).start()
        real = d._record_breaker
        calls = []

        def breaker_once(entry, success):
            calls.append(entry.label)
            if len(calls) == 1:
                raise OSError("disk full")
            real(entry, success)

        d._record_breaker = breaker_once
        try:
            out = d.submit("alice", [UNIT])
            assert out.accepted
            deadline = time.monotonic() + 300
            while d._core.error is None and time.monotonic() < deadline:
                time.sleep(0.05)
            health = d.healthz()
            assert health["ok"] is False
            assert "disk full" in health["error"]
            out2 = d.submit("bob", [UNIT2])
            assert out2.status == 503 and out2["error"] == "draining"
            # the housekeeper drains the daemon at its next beat
            deadline = time.monotonic() + 30
            while not d.draining and time.monotonic() < deadline:
                time.sleep(0.05)
            assert d.status()["state"] == "draining"
        finally:
            summary = d.stop(grace=10)
        assert calls == [make_unit(**UNIT).label()]
        assert "disk full" in summary["error"]
        # the unit was journaled done before the raise: no work is left,
        # so the error alone sets the exit code
        assert summary["remaining"] == 0 and summary["exit_code"] == 1
        assert wal_records(tmp_path, "drain")


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
        # the retry's lease takes a fresh, higher token
        tokens = [r["token"] for r in wal_records(tmp_path, "lease")]
        assert len(tokens) == 2 and tokens[1] > tokens[0]

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
        # the WAL a killed daemon left, in the older daemons' format: one
        # unit done, one whose lease expired, was fenced and re-leased,
        # and was still open (and unresolvable) at death
        path = wal_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_bytes((FIXTURES / "parent_queue.jsonl").read_bytes())
        old_tokens = [r["token"] for r in wal_records(tmp_path)
                      if "token" in r]
        old = replay(path)
        d = make_daemon(tmp_path).start()
        try:
            assert d.epoch == 2
            assert d.reclaimed_on_boot == 1
            # the ticket from the dead boot is still tracked and finishes
            assert d.wait_ticket("t-parent", 300)
            st = d.ticket_status("t-parent")
            assert st["units"]["done"] == 2
            # the replacement lease's token is above every old one
            new_lease = wal_records(tmp_path, "lease")[3]
            assert new_lease["token"] > max(old_tokens)
            done = wal_records(tmp_path, "done")
            assert done[-1]["token"] == new_lease["token"]
        finally:
            d.stop(grace=30)
        restarts = [
            (r["d"], r["token"]) for r in wal_records(tmp_path, "requeue")
            if r["reason"] == "daemon-restart"
        ]
        assert restarts == list(old.open_leases.items())

class TestStatusView:
    def test_serve_status_and_obs_serve_print_one_document(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.__main__ import main as obs_main
        from repro.serve.__main__ import main as serve_main

        d = make_daemon(tmp_path).start()
        try:
            assert d.wait_ticket(d.submit("alice", [UNIT])["ticket"], 300)
        finally:
            d.stop(grace=10)
        # pin the wall clock the heartbeat staleness is measured against
        monkeypatch.setattr(time, "time", lambda: 2e9)
        printed = []
        for main, argv in ((serve_main, ["status"]), (obs_main, ["serve"])):
            for extra in (["--json"], []):
                assert main([*argv, "--cache-dir", str(tmp_path), *extra]) == 0
                printed.append(capsys.readouterr().out)
        serve_json, serve_text, obs_json, obs_text = printed
        assert serve_json == obs_json and serve_text == obs_text
        doc = json.loads(serve_json)
        assert doc["live"] is False and doc["state"] == "stopped"
        assert doc["by_state"] == {"done": 1} and doc["open_leases"] == 0
        # a daemon that drained renders its terminal state, not death
        assert serve_text.startswith("serve [stopped]  epoch 1\n")
        assert "dead" not in serve_text and "open at death" not in serve_text

    def test_wal_without_terminal_state_renders_dead(
        self, tmp_path, capsys, monkeypatch
    ):
        # a killed daemon leaves no `state` record: its last boot is
        # still "running", and its open lease waits for the next boot
        from repro.obs.__main__ import main as obs_main
        from repro.serve.wal import QueueWAL

        u = make_unit(**UNIT)
        dg = unit_digest(u)
        with QueueWAL(wal_path(tmp_path)) as w:
            w.record_boot(1, 2)
            w.record_submit("t-dead", "alice", dg, u.label(), UNIT)
            w.record_lease(dg, u.label(), 1, 1)
            w.record_heartbeat(1.0, queued=0, leased=1, done=0, failed=0)
        monkeypatch.setattr(time, "time", lambda: 2e9)
        assert obs_main(["serve", "--cache-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("serve [dead/stale]  epoch 1\n")
        assert "  leases:     1 open at death (reclaimed on next boot)" in text
