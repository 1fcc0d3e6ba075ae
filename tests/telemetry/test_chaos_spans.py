"""Chaos runs leave telemetry: injected faults appear as tagged span
events, per-kind fault counters tick, and failures reach the log."""
from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.telemetry import metrics as tm
from repro.telemetry import spans as tspans

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]


def _instants(tr, name):
    return [
        e for e in tr.events
        if isinstance(e, tspans.Instant) and e.name == name
    ]


def test_injected_raise_appears_as_tagged_span_event(tmp_path):
    tr = tspans.Tracer(run_id="chaos")
    with tm.use_registry() as reg, tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(
            cache=tmp_path, faults="raise:TranP/cuda*", retries=0,
            progress="off",
        )
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
    tr.finish()

    failed = [f.label for f in ex.stats.failures]
    assert sorted(failed) == sorted(
        u.label() for u in UNITS if u.api == "cuda"
    )
    fired = _instants(tr, "fault.injected")
    assert fired and all(e.cat == "fault" for e in fired)
    assert {e.attrs["kind"] for e in fired} == {"raise"}
    assert {e.attrs["label"] for e in fired} == set(failed)
    # per-kind counters ticked alongside the events
    assert reg.counter("faults.injected.raise").value == len(failed)
    assert reg.counter("exec.failures.injected").value == len(failed)
    # terminal failures are themselves events, flagged injected
    unit_failed = _instants(tr, "unit.failed")
    assert {e.attrs["label"] for e in unit_failed} == set(failed)
    assert all(e.attrs["injected"] for e in unit_failed)


def test_injected_transient_retries_are_span_events(tmp_path):
    tr = tspans.Tracer(run_id="chaos-transient")
    with tm.use_registry() as reg, tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(
            cache=tmp_path, faults="seed=3;transient:TranP/opencl*:1.0:1",
            retries=2, progress="off",
        )
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
    tr.finish()
    # the transient rule fails attempt 1 then lets the unit succeed
    assert not ex.stats.failures
    backoffs = _instants(tr, "retry.backoff")
    assert backoffs
    assert reg.counter("exec.retries").value == len(backoffs)
    assert reg.counter("faults.injected.transient").value == len(backoffs)


def test_corrupt_fault_counts_and_quarantine_event(tmp_path):
    tr = tspans.Tracer(run_id="chaos-corrupt")
    unit = UNITS[0]
    with tm.use_registry() as reg, tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(
            cache=tmp_path, faults=f"corrupt:{unit.label()}",
            progress="off",
        )
        ex.run_unit(unit)
        assert reg.counter("faults.injected.corrupt").value == 1
        # a fresh executor over the same cache trips the quarantine path
        ex2 = rexec.SweepExecutor(cache=tmp_path, progress="off")
        ex2.run_unit(unit)
        assert ex2.stats.quarantined == 1
        assert reg.counter("cache.quarantined").value == 1
    tr.finish()
    assert _instants(tr, "cache.quarantine")
    assert (tmp_path / "quarantine").exists()


def test_parallel_chaos_events_survive_worker_roundtrip(tmp_path):
    """Fault events fired inside pool workers are shipped home in the
    ok/err payload and absorbed into the parent trace + registry."""
    tr = tspans.Tracer(run_id="chaos-pool")
    with tm.use_registry() as reg, tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(
            jobs=2, cache=tmp_path, retries=0,
            faults="raise:TranP/cuda*", progress="off",
        )
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
    tr.finish()
    fired = _instants(tr, "fault.injected")
    worker_fired = [e for e in fired if str(e.span_id).startswith("w")]
    assert worker_fired, "no fault events absorbed from workers"
    assert reg.counter("faults.injected.raise").value >= 2
