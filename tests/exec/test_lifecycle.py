"""Sweep lifecycle: exit codes, drain, preflight agreement, worker deaths.

For every benchsuite unit the CLIs can construct on a CUDA and a
non-CUDA device, the ABT preflight verdict (computed without a launch)
agrees with what the simulator actually does at enqueue — ``would_abt``
iff the executed unit comes back tagged ``failure == "ABT"`` (Table
VI).  A sweep itself never asks the preflight: each unit's own launch
is the only verdict, and the engine's records carry it.
"""
import os
import signal

import pytest

from repro import exec as rexec
from repro.arch import CELLBE, GTX480
from repro.benchsuite.registry import REAL_WORLD, SYNTHETIC
from repro.errors import ABORT_CODES, FailureKind, SweepInterrupted
from repro.exec import lifecycle
from repro.exec.journal import RunJournal


class TestRunOutcome:
    def test_clean(self):
        assert lifecycle.run_outcome(False, 0) == ("complete", 0)

    def test_failed(self):
        assert lifecycle.run_outcome(False, 3) == ("failed", 1)

    def test_interrupted(self):
        assert lifecycle.run_outcome(True, 0) == ("interrupted", 75)

    def test_interrupted_wins_over_failures(self):
        # an interrupted run is resumable even if some units failed:
        # the rerun retries them, so EX_TEMPFAIL is the honest answer
        assert lifecycle.run_outcome(True, 5) == ("interrupted", 75)

    def test_exit_codes_are_distinct(self):
        codes = {
            lifecycle.EXIT_CLEAN,
            lifecycle.EXIT_FAILED,
            lifecycle.EXIT_INTERRUPTED,
        }
        assert codes == {0, 1, 75}


class _FakeExecutor:
    def __init__(self):
        self.drained_with = None

    def request_drain(self, grace=None):
        self.drained_with = grace


class TestGracefulShutdown:
    def test_first_signal_drains(self):
        ex = _FakeExecutor()
        gs = lifecycle.GracefulShutdown(ex, grace=5.0)
        gs._handler(signal.SIGINT, None)
        assert gs.interrupted and gs.signum == signal.SIGINT
        assert ex.drained_with == 5.0

    def test_second_signal_hard_stops(self):
        gs = lifecycle.GracefulShutdown(_FakeExecutor(), grace=1.0)
        gs._handler(signal.SIGTERM, None)
        with pytest.raises(KeyboardInterrupt, match="hard stop"):
            gs._handler(signal.SIGTERM, None)

    def test_handlers_installed_and_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with lifecycle.GracefulShutdown(_FakeExecutor()) as gs:
            assert signal.getsignal(signal.SIGINT) == gs._handler
            assert signal.getsignal(signal.SIGTERM) == gs._handler
        assert signal.getsignal(signal.SIGINT) == before

    def test_without_executor(self):
        gs = lifecycle.GracefulShutdown(None)
        gs._handler(signal.SIGINT, None)  # no executor: just flags
        assert gs.interrupted


def _suite_units(spec, size="small"):
    """Every unit the benchsuite CLI would run on ``spec`` (its rules:
    every benchmark, both APIs where the device supports CUDA)."""
    apis = ["cuda", "opencl"] if spec.supports_cuda() else ["opencl"]
    return [
        rexec.make_unit(name, api, spec, size)
        for name in (SYNTHETIC + REAL_WORLD)
        for api in apis
    ]


PREFLIGHT_UNITS = _suite_units(CELLBE) + _suite_units(GTX480)


class TestPreflightAgreement:
    """Acceptance: preflight verdicts match simulator ABT outcomes."""

    @pytest.mark.parametrize(
        "unit", PREFLIGHT_UNITS, ids=[u.label() for u in PREFLIGHT_UNITS]
    )
    def test_verdict_matches_launch_outcome(self, unit):
        v = lifecycle.preflight_unit(unit)
        ur = rexec.run_unit(unit)
        actually_abt = ur.bench.failure == FailureKind.ABT.value
        assert v.would_abt == actually_abt, (
            f"{unit.label()}: preflight said would_abt={v.would_abt} "
            f"({v.code}), simulator said failure={ur.bench.failure!r}"
        )
        if v.would_abt:
            assert v.code in ABORT_CODES
            assert v.kind == FailureKind.ABT.value
            assert v.kernel and v.threads > 0

    def test_cell_be_predicts_the_papers_abt_rows(self):
        # Table VI: FFT and DXTC abort on Cell/BE for lack of resources
        abt = {
            u.benchmark
            for u in _suite_units(CELLBE)
            if lifecycle.preflight_unit(u).would_abt
        }
        assert "FFT" in abt and "DXTC" in abt
        assert "MD" not in abt and "Sobel" not in abt

    def test_cuda_on_non_cuda_device_is_not_abt(self):
        u = rexec.make_unit("MD", "cuda", CELLBE, "small")
        v = lifecycle.preflight_unit(u)
        assert not v.would_abt and v.note == "cuda-unsupported"

    def test_verdict_as_dict_round_trips(self):
        u = rexec.make_unit("FFT", "opencl", CELLBE, "small")
        d = lifecycle.preflight_unit(u).as_dict()
        assert d["label"] == u.label() and d["would_abt"] is True



@pytest.fixture(scope="module")
def cellbe_pool_sweep():
    """The Cell/BE small suite at ``jobs=2``, counting driver compiles.

    Both front ends are wrapped where the one build path of the
    runtimes and the preflight (``repro.runtime.overhead.compile_for``)
    looks them up; the pool forks after the wrap, so a call counts only
    when ``os.getpid()`` is still the driver's.
    """
    from repro.runtime import overhead

    driver = os.getpid()
    calls = []

    def counted(fn):
        def wrapper(*a, **k):
            if os.getpid() == driver:
                calls.append(fn.__name__)
            return fn(*a, **k)
        return wrapper

    units = _suite_units(CELLBE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overhead, "compile_cuda", counted(overhead.compile_cuda))
        mp.setattr(overhead, "compile_opencl", counted(overhead.compile_opencl))
        ex = rexec.SweepExecutor(jobs=2, progress="off")
        ex.prewarm(units)
        prewarm_calls = list(calls)
        # the wrap is live in the driver: a preflight here is counted
        lifecycle.preflight_unit(units[0])
        assert len(calls) > len(prewarm_calls)
    return units, ex, prewarm_calls


class TestSingleVerdict:
    """A unit's own launch is the sweep's only ABT verdict."""

    def test_pool_records_carry_the_predicted_abt_rows(self, cellbe_pool_sweep):
        units, ex, _ = cellbe_pool_sweep
        abt = FailureKind.ABT.value
        predicted = {
            u.label() for u in units if lifecycle.preflight_unit(u).would_abt
        }
        assert predicted, "the Cell/BE suite has Table VI ABT rows"
        run = {r.label for r in ex.stats.records if r.failure == abt}
        assert run == predicted
        # the memo-served path reports the same rows, and --sweep-json
        # units carry them
        for u in units:
            ex.run_unit(u)
        served = {
            r.label for r in ex.stats.records
            if r.source == "mem" and r.failure == abt
        }
        assert served == predicted
        summary = {
            row["label"] for row in ex.stats.summary()["units"]
            if row["failure"] == abt
        }
        assert summary == predicted

    def test_driver_compiles_nothing_during_prewarm(self, cellbe_pool_sweep):
        units, ex, prewarm_calls = cellbe_pool_sweep
        assert ex.stats.misses == len(units) and not ex.stats.failures
        assert prewarm_calls == []


UNIT = rexec.make_unit("TranP", "cuda", GTX480, "small")


class TestDrain:
    def test_request_drain_idempotent(self):
        ex = rexec.SweepExecutor()
        assert not ex.draining
        ex.request_drain(10.0)
        deadline = ex._drain_deadline
        ex.request_drain(99999.0)  # first call wins
        assert ex.draining and ex._drain_deadline == deadline

    def test_cold_unit_refused_while_draining(self):
        ex = rexec.SweepExecutor()
        ex.request_drain(0.0)
        with pytest.raises(SweepInterrupted):
            ex.run_unit(UNIT)

    def test_warm_unit_still_served_while_draining(self):
        ex = rexec.SweepExecutor()
        ex.run_unit(UNIT)
        ex.request_drain(0.0)
        ur = ex.run_unit(UNIT)  # memoized: no new admission needed
        assert ur.cached

    def test_prewarm_stops_admission_while_draining(self):
        ex = rexec.SweepExecutor()
        ex.request_drain(0.0)
        ex.prewarm([UNIT])
        assert ex.stats.misses == 0  # nothing was simulated


class TestDegradedMode:
    def test_kill_storm_demotes_and_sweep_completes(self):
        # repeated worker deaths at --jobs 2: each dead worker names its
        # own unit, the sweep finishes, every unit is accounted for
        # (the killed one as an injected failure)
        units = [
            rexec.make_unit("TranP", api, dev, "small")
            for api in ("cuda", "opencl")
            for dev in (CELLBE, GTX480)
            if not (api == "cuda" and not dev.supports_cuda())
        ]
        target = units[0].label()
        ex = rexec.SweepExecutor(jobs=2, faults=f"kill:{target}")
        ex.prewarm(units)
        fails = {f.label for f in ex.stats.failures}
        assert fails == {target}
        assert all(f.injected for f in ex.stats.failures)
        assert ex.stats.failures[0].kind == FailureKind.CRASH.value
        # the bystanders all completed despite the dead workers
        done = {r.label for r in ex.stats.records}
        assert done == {u.label() for u in units} - fails


def _sweep_run(*flags):
    """The SweepRun a sweep CLI builds for these flags."""
    import argparse

    ap = argparse.ArgumentParser()
    lifecycle.add_sweep_arguments(ap)
    args = ap.parse_args([*flags, "--no-manifest", "--progress", "off"])
    return lifecycle.SweepRun(args, "repro.test", list(flags))


class TestOpenJournal:
    """``SweepRun`` resolves ``--resume`` and opens the run journal."""

    def test_resume_without_cache_rejected(self):
        with pytest.raises(SystemExit, match="--resume needs the result cache"):
            with _sweep_run("--no-cache", "--resume"):
                pass

    def test_no_cache_no_journal(self):
        with _sweep_run("--no-cache") as run:
            assert (run.journal, run.replay) == (None, None)

    def test_fresh_journal_created(self, tmp_path):
        with _sweep_run("--cache-dir", str(tmp_path)) as run:
            j, rep = run.journal, run.replay
            assert rep is None and j.run_id == run.tracer.trace_id
            assert j.path.exists()

    def test_resume_chains_run_ids(self, tmp_path):
        first = RunJournal.create(tmp_path, "rid-1")
        first.record_lease("aaa", "x", 1)
        first.close("interrupted")
        with _sweep_run("--cache-dir", str(tmp_path), "--resume", "rid-1") as run:
            j, rep = run.journal, run.replay
            assert rep.run_id == "rid-1" and rep.in_flight == {"aaa"}
        from repro.exec import journal as jmod

        assert jmod.load(j.path).resumed_from == "rid-1"


class TestLifecycleSummary:
    """``SweepRun`` writes the manifest's ``lifecycle`` block."""

    def test_minimal(self):
        with _sweep_run("--no-cache") as run:
            pass
        assert run.lifecycle_summary("complete") == {
            "state": "complete",
            "exit_code": 0,
            "journal": None,
            "resumed_from": None,
            "resumed_hits": 0,
        }

    def test_with_executor(self, tmp_path):
        with _sweep_run("--cache-dir", str(tmp_path)) as run:
            run.stranded = True
        out = run.lifecycle_summary("interrupted")
        assert out["exit_code"] == 75
        assert out["journal"] == str(run.journal.path)
        assert "demoted" not in out
        assert out["resumed_hits"] == 0
