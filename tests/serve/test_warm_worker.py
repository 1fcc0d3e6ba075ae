"""Long-lived daemon workers: reuse, replacement, outcomes, shutdown.

A spy around the worker's ``execute`` appends the executing pid to a
file; the daemon forks its workers lazily, after the spy is in place,
so every lease's pid is visible from the test process.
"""
import json
import multiprocessing
import os

import pytest

from repro.serve import worker as worker_mod
from repro.serve.daemon import SweepDaemon
from repro.serve.wal import wal_path
from repro.telemetry import metrics

SOBEL_CUDA = {"benchmark": "Sobel", "api": "cuda", "device": "GTX480",
              "size": "small"}
SOBEL_CL = {"benchmark": "Sobel", "api": "opencl", "device": "GTX480",
            "size": "small"}
REDUCE_CUDA = {"benchmark": "Reduce", "api": "cuda", "device": "GTX480",
               "size": "small"}


@pytest.fixture
def pids(tmp_path, monkeypatch):
    """Returns a reader of the pids that executed leases, in order."""
    path = tmp_path / "pids.txt"
    real = worker_mod.execute

    def spy(*args, **kwargs):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "execute", spy)
    return lambda: [int(x) for x in path.read_text().split()]


@pytest.fixture
def spawns():
    """A private metrics registry; returns a reader of the spawn counter."""
    with metrics.use_registry() as reg:
        yield lambda: reg.counter("serve.worker_spawns").value


def make_daemon(tmp_path, **kw):
    kw.setdefault("hb_interval", 0.3)
    kw.setdefault("backoff", 0.01)
    return SweepDaemon(tmp_path / "work", **kw)


def run_ticket(d, unit) -> dict:
    out = d.submit("alice", [unit])
    assert out.accepted
    assert d.wait_ticket(out["ticket"], 300)
    return d.ticket_status(out["ticket"])["rows"][0]


def wal_records(tmp_path, t):
    lines = wal_path(tmp_path / "work").read_text().splitlines()
    return [r for r in map(json.loads, filter(None, lines)) if r["t"] == t]


def test_sequential_leases_share_one_worker(tmp_path, pids, spawns):
    d = make_daemon(tmp_path, jobs=1).start()
    try:
        assert run_ticket(d, SOBEL_CUDA)["state"] == "done"
        assert run_ticket(d, SOBEL_CL)["state"] == "done"
    finally:
        d.stop(grace=30)
    seen = pids()
    assert len(seen) == 2 and seen[0] == seen[1] != os.getpid()
    assert spawns() == 1


def test_killed_worker_is_replaced_for_the_next_lease(tmp_path, pids, spawns):
    d = make_daemon(
        tmp_path, jobs=1, retries=1, faults="kill:Sobel/cuda@*",
    ).start()
    try:
        row = run_ticket(d, SOBEL_CUDA)
        assert row["state"] == "failed" and row["kind"] == "CRASH"
        assert row["injected"] is True
        assert run_ticket(d, SOBEL_CL)["state"] == "done"
    finally:
        d.stop(grace=30)
    reasons = [r["reason"] for r in wal_records(tmp_path, "requeue")]
    assert reasons == ["worker died (exitcode 13)"]
    killed1, killed2, survivor = pids()
    assert len({killed1, killed2, survivor}) == 3
    assert spawns() == 3


def test_terminal_failure_reply_carries_kind_and_injected(
    tmp_path, pids, spawns
):
    d = make_daemon(
        tmp_path, jobs=1, retries=0, faults="raise:Sobel/cuda@*",
    ).start()
    try:
        row = run_ticket(d, SOBEL_CUDA)
        assert row["state"] == "failed"
        assert row["kind"] == "ERROR" and row["injected"] is True
        assert run_ticket(d, SOBEL_CL)["state"] == "done"
    finally:
        d.stop(grace=30)
    (fail,) = wal_records(tmp_path, "fail")
    assert fail["kind"] == "ERROR" and fail["injected"] is True
    assert not (tmp_path / "work" / "serve" / "err").exists()
    # a failure the worker classified does not cost the worker
    assert len(set(pids())) == 1 and spawns() == 1


def test_timeout_leaves_the_worker_serving(tmp_path, pids, spawns):
    d = make_daemon(
        tmp_path, jobs=1, retries=0, timeout=3.0,
        faults="hang:Sobel/cuda@*:1:1:60",
    ).start()
    try:
        row = run_ticket(d, SOBEL_CUDA)
        assert row["state"] == "failed" and row["kind"] == "TIMEOUT"
        assert run_ticket(d, SOBEL_CL)["state"] == "done"
    finally:
        d.stop(grace=30)
    assert len(pids()) == 2 and len(set(pids())) == 1
    assert spawns() == 1


def test_spawns_stay_within_jobs_over_a_chaos_free_ticket(tmp_path, spawns):
    d = make_daemon(tmp_path, jobs=2).start()
    try:
        assert spawns() == 0  # forked on first need, not at boot
        out = d.submit("alice", [SOBEL_CUDA, SOBEL_CL, REDUCE_CUDA])
        assert d.wait_ticket(out["ticket"], 300)
        assert d.ticket_status(out["ticket"])["units"]["done"] == 3
    finally:
        d.stop(grace=30)
    assert 1 <= spawns() <= 2


def test_no_worker_outlives_stop(tmp_path):
    d = make_daemon(tmp_path, jobs=2).start()
    try:
        assert multiprocessing.active_children() == []
        out = d.submit("alice", [SOBEL_CUDA, SOBEL_CL])
        assert d.wait_ticket(out["ticket"], 300)
        assert multiprocessing.active_children() != []
    finally:
        summary = d.stop(grace=30)
    assert summary["exit_code"] == 0
    assert multiprocessing.active_children() == []
