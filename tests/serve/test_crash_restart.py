"""kill -9 the daemon mid-sweep: zero lost, zero duplicated, same bytes.

The PR's acceptance scenario, end to end, with real processes:

1. a sequential no-crash reference sweep (``repro.benchsuite``) writes
   the canonical results document into its own cache;
2. a daemon (``python -m repro.serve --jobs 4``) takes the same units
   as one tenant submission, is SIGKILLed mid-sweep (workers and all),
   and is then restarted over the same workdir;
3. the restarted daemon replays the queue WAL, reclaims every orphaned
   lease, finishes the ticket, and serves results **byte-identical**
   to the reference — with every unit simulated at most once per
   granted lease and exactly one terminal ``done`` per digest.
"""
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient
from repro.serve.wal import replay, wal_path

SRC = Path(__file__).resolve().parents[2] / "src"

BENCHES = ["BFS", "Sobel", "TranP", "Reduce", "MD", "SPMV"]
UNITS = [
    {"benchmark": n, "api": api, "device": "GTX480", "size": "small"}
    for n in BENCHES
    for api in ("cuda", "opencl")
]


def clean_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_CACHE_DIR", None)
    env["REPRO_HEARTBEAT_S"] = "0.5"  # fast WAL beats for repro.obs staleness
    return env


def start_daemon(cache, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--cache-dir", str(cache),
         "--jobs", "4", "--grace", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    endpoint = Path(cache) / "serve" / "endpoint.json"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if endpoint.exists():
            try:
                ep = json.loads(endpoint.read_text())
            except ValueError:
                ep = None
            if ep and ep.get("pid") == proc.pid:
                client = ServeClient(ep["host"], ep["port"])
                if client.alive():
                    return proc, client
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            raise AssertionError(
                f"daemon died during boot (exit {proc.returncode}):\n{out}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never advertised an endpoint")


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Reference sweep + killed-and-restarted daemon sweep, once."""
    env = clean_env()

    # 1. the sequential no-crash reference
    ref_cache = tmp_path_factory.mktemp("serve-ref")
    ref_json = ref_cache / "results.json"
    ref = subprocess.run(
        [sys.executable, "-m", "repro.benchsuite", *BENCHES,
         "--device", "GTX480", "--api", "both", "--size", "small",
         "--jobs", "1", "--quiet", "--cache-dir", str(ref_cache),
         "--results-json", str(ref_json)],
        capture_output=True, text=True, env=env, timeout=540,
    )
    assert ref.returncode == 0, ref.stdout + ref.stderr
    ref_bytes = ref_json.read_bytes()

    # 2. daemon sweep, SIGKILLed mid-flight.  A deterministic hang
    # fault pins the two MD units in their leases (the other ten run
    # clean), so the kill provably lands with leases open — no timing
    # luck involved.
    cache = tmp_path_factory.mktemp("serve-crash")
    env_hang = dict(env, REPRO_FAULTS="hang:MD/*:1.0:1:12")
    proc, client = start_daemon(cache, env_hang)
    ticket = client.submit("alice", UNITS)["ticket"]
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        st = client.status()
        if st["units"]["done"] >= len(UNITS) - 2 and st["units"]["leased"]:
            break
        time.sleep(0.05)
    else:
        raise AssertionError(f"sweep never reached the hang point: {st}")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(30)

    killed = replay(wal_path(cache))
    # the kill was mid-sweep: something must have been left undone
    assert killed.state == "running"  # no terminal state record: murdered

    # 3. restart over the same workdir; the old ticket must finish
    proc2, client2 = start_daemon(cache, env)
    try:
        deadline = time.monotonic() + 480
        while time.monotonic() < deadline:
            st = client2.ticket(ticket)
            if st["complete"]:
                break
            time.sleep(0.2)
        else:
            raise AssertionError(f"ticket never completed: {st['units']}")
        out_bytes = client2.ticket_results(ticket)
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            raise
    return {
        "ref_bytes": ref_bytes,
        "out_bytes": out_bytes,
        "killed": killed,
        "final": replay(wal_path(cache)),
        "ticket_status": st,
        "daemon_exit": proc2.returncode,
    }


class TestCrashRestart:
    def test_results_byte_identical_to_sequential_reference(self, scenario):
        assert scenario["out_bytes"] == scenario["ref_bytes"]

    def test_zero_lost_units(self, scenario):
        st = scenario["ticket_status"]
        assert st["units"] == {"queued": 0, "leased": 0,
                               "done": len(UNITS), "failed": 0}

    def test_zero_duplicated_units(self, scenario):
        # exactly one terminal done per digest, ever, across both boots
        done = [
            u.digest for u in scenario["final"].units.values()
            if u.state == "done"
        ]
        assert len(done) == len(set(done)) == len(UNITS)

    def test_done_records_are_unique_per_digest(self, scenario):
        rep = scenario["final"]
        # count raw done records straight off the WAL
        counts = {}
        for line in Path(rep.path).read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("t") == "done":
                counts[rec["d"]] = counts.get(rec["d"], 0) + 1
        assert counts, "no done records at all?"
        dupes = {d: n for d, n in counts.items() if n > 1}
        assert not dupes, f"duplicated done records: {dupes}"
        assert len(counts) == len(UNITS)

    def test_orphaned_leases_were_reclaimed_not_lost(self, scenario):
        killed = scenario["killed"]
        final = scenario["final"]
        # every lease open at the kill was requeued by the next boot...
        assert killed.open_leases, "kill landed with no lease open?"
        requeued = set()
        for line in Path(final.path).read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("t") == "requeue" and rec.get("reason") == "daemon-restart":
                requeued.add(rec["d"])
        assert set(killed.open_leases) <= requeued
        # ...and no lease is open once the queue drained
        assert final.open_leases == {}

    def test_fencing_floor_rose_past_the_dead_boot(self, scenario):
        assert scenario["final"].epoch == scenario["killed"].epoch + 1
        assert scenario["final"].next_token >= scenario["killed"].next_token

    def test_graceful_shutdown_exits_clean(self, scenario):
        # SIGTERM after an emptied queue: 0 under the 0/1/75 contract
        assert scenario["daemon_exit"] == 0
