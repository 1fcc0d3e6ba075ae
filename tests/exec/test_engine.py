"""SweepExecutor behavior: memoization, disk cache, parallel fan-out.

Includes satellite (c): a cached result is byte-identical to a fresh
simulation.
"""
import json
import multiprocessing

import pytest

from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.exec import dispatch as dispatch_mod


def canon(ur, wall=True):
    """Canonical JSON bytes of a unit result.

    ``wall=False`` zeroes the only two wall-clock fields a simulation
    records (host compile seconds and wall seconds spent) so two
    *independent* simulations can be compared; everything else is
    simulated and must match bit-for-bit.
    """
    payload = rexec.result_to_json(ur)
    if not wall:
        payload["seconds"] = 0.0
        if payload["profile"]:
            payload["profile"]["compile_s"] = 0.0
    return json.dumps(payload, sort_keys=True)


UNIT = rexec.make_unit("TranP", "cuda", GTX480, "small")
UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]


def test_memo_hit_and_counters():
    ex = rexec.SweepExecutor()
    fresh = ex.run_unit(UNIT)
    again = ex.run_unit(UNIT)
    assert not fresh.cached and again.cached
    assert ex.stats.misses == 1 and ex.stats.hits == 1
    assert canon(fresh) == canon(again)


def test_cached_result_byte_identical_to_fresh(tmp_path):
    ex = rexec.SweepExecutor(cache=tmp_path)
    fresh = ex.run_unit(UNIT)
    # a brand-new executor must hit the disk, not re-simulate
    ex2 = rexec.SweepExecutor(cache=tmp_path)
    cached = ex2.run_unit(UNIT)
    assert cached.cached
    assert ex2.stats.hits == 1 and ex2.stats.misses == 0
    assert ex2.stats.records[0].source == "disk"
    # the hit serves the stored payload bit-for-bit, wall clocks included
    assert canon(fresh) == canon(cached)
    # ... and matches an independent fresh simulation in every simulated
    # field (only the wall-clock host phases may differ run to run)
    raw = rexec.execute(UNIT)
    assert canon(cached, wall=False) == canon(
        rexec.result_from_json(rexec.result_to_json(raw)), wall=False
    )
    # profile survives the round trip as a real LaunchProfile
    assert cached.profile.kernel == "TranP/cuda"
    assert cached.profile.check() == []
    assert cached.profile.caches.keys() == fresh.profile.caches.keys()


def test_prewarm_parallel_matches_sequential(tmp_path):
    seq = rexec.SweepExecutor(jobs=1)
    par = rexec.SweepExecutor(jobs=4)
    seq.prewarm(UNITS)
    par.prewarm(UNITS)
    assert par.stats.misses == len(UNITS)
    for u in UNITS:
        assert canon(seq.run_unit(u), wall=False) == canon(
            par.run_unit(u), wall=False
        )


def test_no_worker_outlives_prewarm(tmp_path):
    ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
    assert ex.prewarm(UNITS) == len(UNITS)
    assert ex.stats.misses == len(UNITS)
    # joined, not merely signalled: their CPU counts as this process's
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_an_expired_drain(tmp_path):
    # the driver is SIGINTed (from a worker) while the other worker
    # hangs far past the grace: the hung unit is abandoned, its worker
    # killed and reaped before prewarm returns
    from repro.exec import lifecycle

    hung, interrupter = UNITS[0], UNITS[1]
    ex = rexec.SweepExecutor(
        jobs=2, cache=tmp_path, progress="off",
        faults=f"hang:{hung.label()}:1:1:120;interrupt:{interrupter.label()}",
    )
    with lifecycle.GracefulShutdown(ex, grace=1.0) as gs:
        ex.prewarm(UNITS)
    assert gs.interrupted and ex.draining
    assert hung.label() not in {r.label for r in ex.stats.records}
    assert ex.stats.failures == []
    assert multiprocessing.active_children() == []


def test_concurrent_settles_lose_no_update(tmp_path):
    # more dispatcher threads than cores, a tiny switch interval and
    # retries re-entering the shared queue: every unit must still be
    # recorded, journaled done and cached exactly once
    import sys

    from repro.arch.specs import ALL_DEVICES
    from repro.exec import journal as jmod
    from repro.exec.journal import RunJournal

    units = [
        rexec.make_unit(bench, api, spec, "small")
        for bench in ("TranP", "Reduce")
        for spec in ALL_DEVICES.values()
        for api in ("cuda", "opencl")
        if api == "opencl" or spec.supports_cuda()
    ]
    j = RunJournal.create(tmp_path, "stress")
    ex = rexec.SweepExecutor(
        jobs=4, cache=tmp_path, journal=j, progress="off", backoff=0.001,
        faults="transient:*:0.5:1",
    )
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert ex.prewarm(units) == len(units)
    finally:
        sys.setswitchinterval(before)
    j.close("complete")
    labels = [r.label for r in ex.stats.records]
    assert sorted(labels) == sorted(u.label() for u in units)
    assert ex.stats.failures == []
    rep = jmod.load(j.path)
    assert rep.completed == {ex.digest_of(u) for u in units}
    assert not rep.in_flight
    assert all(ex.digest_of(u) in ex.cache for u in units)


def test_prewarm_dedups_and_skips_cached(tmp_path):
    ex = rexec.SweepExecutor(cache=tmp_path)
    assert ex.prewarm([UNIT, UNIT, UNIT]) == 1
    assert ex.prewarm([UNIT]) == 0  # already warm
    ex2 = rexec.SweepExecutor(cache=tmp_path)
    assert ex2.prewarm([UNIT]) == 0  # warm from disk too


def test_pool_failure_falls_back_to_sequential(monkeypatch, capsys, tmp_path):
    from repro import durable
    from repro.exec.journal import RunJournal

    def broken(*a, **k):
        raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(dispatch_mod, "spawn_worker", broken)
    # first in the queue, so a dispatcher thread always takes it and
    # fails to fork; the failed fork must not spend its one transient
    flaky = rexec.make_unit("Reduce", "cuda", GTX480, "small")
    j = RunJournal.create(tmp_path, "fallback")
    ex = rexec.SweepExecutor(
        jobs=4, journal=j, backoff=0.001,
        faults=f"transient:{flaky.label()}:1.0:1",
    )
    assert ex.prewarm([flaky] + UNITS[:2]) == 3
    j.close("complete")
    assert ex.stats.misses == 3 and ex.stats.failures == []
    assert capsys.readouterr().err.count("falling back to sequential") == 1
    assert ex.run_unit(UNITS[0]).cached
    records, _ = durable.replay(j.path)
    mine = [r for r in records if r.get("d") == ex.digest_of(flaky)]
    leases = [r["attempt"] for r in mine if r["t"] == "lease"]
    # the failed fork's lease, then the in-process attempts from 1; the
    # transient attempt is requeued, so the retry reads as queued
    assert leases == [1, 1, 2]
    assert [r["t"] for r in mine] == [
        "lease", "lease", "requeue", "lease", "done",
    ]
    assert mine[2]["reason"] == "transient"


def test_run_benchmark_routes_through_active_executor():
    ex = rexec.SweepExecutor()
    with rexec.use_executor(ex):
        r1 = rexec.run_benchmark("TranP", "cuda", GTX480, "small")
        r2 = rexec.run_benchmark("TranP", "cuda", GTX480, "small")
    assert r1.value == pytest.approx(r2.value)
    assert ex.stats.hits == 1 and ex.stats.misses == 1


def test_compare_routes_through_active_executor():
    from repro.core import compare

    ex = rexec.SweepExecutor()
    with rexec.use_executor(ex):
        out1 = compare("TranP", GTX480, size="small")
        out2 = compare("TranP", GTX480, size="small")
    assert ex.stats.misses == 2 and ex.stats.hits == 2
    assert out1.pr.pr == out2.pr.pr
    # profiles still flow through the engine (repro.prof integration)
    assert out1.cuda_profile.kernel == "TranP/cuda"
    assert out1.opencl_profile.kernel == "TranP/opencl"


def test_sweep_stats_render_and_summary():
    from repro.prof.report import render_sweep

    ex = rexec.SweepExecutor()
    ex.run_unit(UNIT)
    ex.run_unit(UNIT)
    text = render_sweep(ex.stats)
    assert "1 hit(s), 1 simulated" in text
    assert "TranP/cuda@GTX480[small]" in text
    summary = ex.stats.summary()
    assert summary["hits"] == 1 and summary["misses"] == 1
    assert len(summary["units"]) == 2
    json.dumps(summary)  # must be JSON-serializable (the CI artifact)
