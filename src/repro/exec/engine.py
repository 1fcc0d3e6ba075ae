"""The sweep execution engine: memoization + parallel fan-out + fault tolerance.

A :class:`SweepExecutor` serves work units through three layers:

1. an in-process memo table (digest -> payload),
2. an optional on-disk :class:`~repro.exec.cache.ResultCache`,
3. actual simulation, through the dispatch core's
   :class:`~repro.exec.dispatch.UnitQueue`, the daemon's queue too, so
   attempts, backoff and verdicts are the same whoever runs them: the
   core's warm forked workers when ``jobs > 1`` and more than one unit
   is cold, the calling thread otherwise.

All results — hits and misses alike — are round-tripped through the
JSON serialization layer, so the rendered reports are byte-identical
whatever mix of cache hits, in-process runs and workers produced them.
If no worker can be forked (no semaphores in a sandbox, fork bans,
...), the engine warns once and the calling thread runs the rest of
the same queue; the failed fork costs the unit no attempt.

Partial failure degrades gracefully instead of killing the sweep:

* an exception in a unit comes back as a classified error, so one bad
  unit costs one row;
* a worker holds one unit at a time, so a worker that *dies* (signal,
  ``os._exit``) names its own unit; the unit is retried on a fresh
  worker and recorded as a CRASH once ``retries`` are spent;
* :class:`~repro.errors.TransientError` failures are retried with
  jittered exponential backoff (``retries``/``backoff``), waited out
  in the queue rather than in a sleep; the queue's one outcome policy
  (:func:`~repro.exec.dispatch.decide`) judges every attempt;
* ``timeout`` seconds of wall clock cut a hung unit off (SIGALRM where
  the unit executes, worker or calling thread);
* every terminal failure is recorded as a :class:`FailedUnit` in
  :class:`SweepStats` and the unit's digest is quarantined: later
  requests raise :class:`~repro.errors.UnitFailed` instead of
  re-executing the poison.

Crash-safety (see :mod:`repro.exec.lifecycle` / :mod:`repro.exec.journal`):

* an optional :class:`~repro.exec.journal.RunJournal` receives a
  fsynced ``lease`` record before each attempt is dispatched, and the
  record of the queue's verdict once it settles: ``done`` only once
  its result is durably in the cache, ``requeue`` for a retry, or
  ``fail``; so a killed process leaves a replayable record of exactly
  which units were in flight;
* :meth:`SweepExecutor.request_drain` (wired to SIGINT/SIGTERM by
  :class:`~repro.exec.lifecycle.GracefulShutdown`) stops admission:
  in-flight units get a bounded grace period, everything else is left
  for a ``--resume`` rerun; every worker is reaped before
  :meth:`~SweepExecutor.prewarm` returns;
* a unit that aborts at enqueue (Table VI "ABT") is reported by the
  launch that decided it: every :class:`UnitRecord` carries its
  result's failure tag, whether the unit ran on a worker, ran in
  process or was served from cache.
"""
from __future__ import annotations

import dataclasses
import threading
import time
from typing import Iterable, Optional, Sequence

from .. import durable
from .. import faults as faults_mod
from ..errors import FailureKind, SweepInterrupted, UnitFailed
from ..telemetry import log, metrics
from ..telemetry import spans as tspans
from ..telemetry.progress import ProgressLine
from .cache import ResultCache, result_from_json
from .dispatch import UNAVAILABLE, Dispatcher, UnitQueue, run_attempt
from .unit import UnitResult, WorkUnit, unit_digest, unit_to_dict

__all__ = ["SweepExecutor", "SweepStats", "UnitRecord", "FailedUnit"]


@dataclasses.dataclass
class UnitRecord:
    """Per-unit accounting line: what ran, how it was served, how long."""

    label: str
    digest: str
    seconds: float  # wall seconds: a hit's serve, or the run's own
    sim_seconds: float  # simulation seconds stored with the result
    cached: bool
    source: str  # "mem" | "disk" | "run"
    #: the result's Table VI failure tag ("ABT", "FL", ...), None if ok
    failure: Optional[str] = None


@dataclasses.dataclass
class FailedUnit:
    """One work unit that terminally failed (the sweep went on without it)."""

    label: str
    digest: str
    kind: str  # FailureKind.value
    error: str  # message of the final exception
    traceback: str
    attempts: int
    injected: bool = False  # planted by repro.faults (expected in chaos runs)


class SweepStats:
    """Hit/miss counters + per-unit timings for one executor's lifetime."""

    def __init__(self) -> None:
        self.records: list[UnitRecord] = []
        self.failures: list[FailedUnit] = []
        #: corrupt cache entries moved aside while serving this sweep
        self.quarantined = 0
        #: set when this run resumed a journal: the replay's summary()
        self.resumed: Optional[dict] = None
        #: completed units served from cache thanks to the resumed journal
        self.resumed_hits = 0

    def record(
        self, unit: WorkUnit, digest: str, seconds: float, payload: dict,
        source: str,
    ) -> None:
        metrics.counter(f"exec.serve.{source}").inc()
        self.records.append(
            UnitRecord(
                label=unit.label(), digest=digest, seconds=seconds,
                sim_seconds=payload["seconds"], cached=source != "run",
                source=source, failure=payload["bench"]["failure"],
            )
        )

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def mem_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "mem")

    @property
    def disk_hits(self) -> int:
        return sum(1 for r in self.records if r.source == "disk")

    @property
    def sim_seconds(self) -> float:
        return sum(r.sim_seconds for r in self.records if not r.cached)

    @property
    def cache_serve_seconds(self) -> float:
        """Wall seconds spent serving requests from the memo/disk cache."""
        return sum(r.seconds for r in self.records if r.cached)

    def unexpected_failures(self) -> list[FailedUnit]:
        """Failures not planted by the fault-injection harness."""
        return [f for f in self.failures if not f.injected]

    def summary(self) -> dict:
        """JSON-friendly roll-up (the CI build artifact)."""
        return {
            "hits": self.hits,
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "sim_seconds": self.sim_seconds,
            "cache_serve_seconds": self.cache_serve_seconds,
            "resumed": self.resumed,
            "resumed_hits": self.resumed_hits,
            "units": [dataclasses.asdict(r) for r in self.records],
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }


class SweepExecutor:
    """Memoizing, optionally parallel, fault-tolerant executor."""

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        faults=None,
        progress: str = "auto",
        journal=None,
        resumed=None,
        grace: float = 30.0,
    ) -> None:
        self.jobs = max(1, int(jobs))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        #: fault-injection plan; defaults to $REPRO_FAULTS (None when unset)
        self.faults = (
            faults_mod.from_spec(faults) if faults is not None
            else faults_mod.from_env()
        )
        self.stats = SweepStats()
        #: progress-meter mode during prewarm: "auto" (TTY-gated live
        #: line), "plain" (periodic lines for CI logs), "off"
        self.progress = progress
        self._progress_line: Optional[ProgressLine] = None
        self._mem: dict = {}  # digest -> payload
        self._digests: dict = {}  # WorkUnit -> digest
        self._failed: dict = {}  # digest -> FailedUnit (quarantined units)
        #: optional RunJournal receiving the unit-lifecycle records
        self.journal = journal
        #: JournalReplay this run resumes, when any
        self.resumed = resumed
        self._resumed_done: set = set(resumed.completed) if resumed else set()
        if resumed is not None:
            self.stats.resumed = resumed.summary()
        self.grace = max(0.0, float(grace))
        self._drain = threading.Event()
        self._drain_deadline = float("inf")
        if self.cache is not None:
            # let the cache report quarantines into this sweep's stats
            self.cache.stats = self.stats
        if self.journal is not None:
            # liveness: periodic journaled heartbeats + a metrics-snapshot
            # flush, so repro.obs can watch this run from outside the
            # process (dies with the journal's close())
            self.journal.start_heartbeat(
                durable.heartbeat_interval(),
                stats_fn=self._heartbeat_stats,
                flush_fn=self._flush_metrics,
            )

    # -- lifecycle ---------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once a drain was requested: no new work is admitted."""
        return self._drain.is_set()

    def request_drain(self, grace: Optional[float] = None) -> None:
        """Stop admitting work; in-flight units get ``grace`` seconds.

        Thread- and signal-safe (it only sets an Event and a deadline);
        called by :class:`~repro.exec.lifecycle.GracefulShutdown` from
        the SIGINT/SIGTERM handler.  Idempotent: the first call wins.
        """
        if self._drain.is_set():
            return
        g = self.grace if grace is None else max(0.0, float(grace))
        self._drain_deadline = time.monotonic() + g
        self._drain.set()
        metrics.counter("exec.drain").inc()
        tspans.event("sweep.drain", "engine", grace=g)

    def _grace_expired(self) -> bool:
        return self._drain.is_set() and time.monotonic() > self._drain_deadline

    # -- journal hooks -----------------------------------------------------
    def _heartbeat_stats(self) -> dict:
        """Progress counters each heartbeat record carries."""
        return {
            "done": len(self.stats.records),
            "failed": len(self.stats.failures),
        }

    def _flush_metrics(self) -> None:
        """Persist the live metrics snapshot for out-of-process scrapers."""
        if self.cache is None or self.journal is None:
            return
        try:
            metrics.write_snapshot_file(self.cache.root, self.journal.run_id)
        except OSError:
            pass  # a full disk must not kill the sweep it describes

    # -- lookup layers ----------------------------------------------------
    def digest_of(self, unit: WorkUnit) -> str:
        d = self._digests.get(unit)
        if d is None:
            d = self._digests[unit] = unit_digest(unit)
        return d

    def _lookup(self, digest: str):
        """Returns ``(payload, source)``; payload None on a full miss."""
        payload = self._mem.get(digest)
        if payload is not None:
            return payload, "mem"
        if self.cache is not None:
            payload = self.cache.get(digest)
            if payload is not None:
                self._mem[digest] = payload
                return payload, "disk"
        return None, "run"

    def _store(self, unit: WorkUnit, digest: str, payload: dict) -> None:
        """Account one run, whose attempt already put ``payload`` durably."""
        self._mem[digest] = payload
        label = unit.label()
        if self.cache is not None:
            if self.faults is not None and self.faults.corrupts(label):
                faults_mod.corrupt_file(self.cache.path_for(digest))
                metrics.counter("faults.injected.corrupt").inc()
                tspans.event(
                    "fault.injected", "fault", kind="corrupt", label=label,
                )
        metrics.histogram("exec.unit_sim_s").observe(payload["seconds"])
        self.stats.record(unit, digest, payload["seconds"], payload, "run")
        if self._progress_line is not None:
            self._progress_line.tick(seconds=payload["seconds"])

    # -- failure bookkeeping ----------------------------------------------
    def _record_failure(
        self, unit: WorkUnit, digest: str, err: dict, attempts: int,
    ) -> None:
        kind, error, injected = err["kind"], err["message"], bool(err["injected"])
        failed = FailedUnit(
            label=unit.label(), digest=digest, kind=kind, error=error,
            traceback=err["traceback"], attempts=attempts, injected=injected,
        )
        self.stats.failures.append(failed)
        self._failed[digest] = failed
        metrics.counter(f"exec.failures.{kind}").inc()
        if injected:
            metrics.counter("exec.failures.injected").inc()
        tspans.event(
            "unit.failed", "unit", label=failed.label, kind=kind,
            attempts=attempts, injected=injected, error=error,
        )
        log.warn(
            "unit.failed",
            f"unit {failed.label} failed terminally "
            f"({failed.kind}, attempt {attempts}"
            f"{', injected' if injected else ''}): {error}",
        )
        if self._progress_line is not None:
            self._progress_line.note_failure()
            self._progress_line.tick()  # advances done/total only

    def _raise_failed(self, failed: FailedUnit):
        raise UnitFailed(
            failed.label, FailureKind(failed.kind), failed.error,
            injected=failed.injected,
        )

    # -- serving ----------------------------------------------------------
    def run_unit(self, unit: WorkUnit) -> UnitResult:
        """Serve one unit: memo table, then disk cache, then simulate.

        A unit that already failed terminally is quarantined: it raises
        :class:`~repro.errors.UnitFailed` instead of re-executing.
        """
        t0 = time.perf_counter()
        digest = self.digest_of(unit)
        failed = self._failed.get(digest)
        if failed is not None:
            self._raise_failed(failed)
        with tspans.span("unit.serve", "unit", label=unit.label()) as serve:
            payload, source = self._lookup(digest)
            if payload is None:
                self._run_queue({digest: unit})
                if digest in self._failed:
                    self._raise_failed(self._failed[digest])
                payload = self._mem.get(digest)
                if payload is None:
                    # a drain stopped admission before the unit ran; the
                    # journal's missing `done` record re-enqueues it on
                    # --resume
                    raise SweepInterrupted(unit.label())
            if serve is not None:
                serve.attrs["source"] = source
        if source != "run":  # a run was recorded when it settled
            self.stats.record(
                unit, digest, time.perf_counter() - t0, payload, source
            )
        return result_from_json(payload, cached=source != "run")

    def run_units(self, units: Iterable[WorkUnit]) -> list[UnitResult]:
        """Serve many units (prewarming misses in parallel first).

        Returns the results of the units that succeeded; failures are
        recorded in ``stats.failures`` rather than propagated, so one
        bad unit costs one row, not the sweep.
        """
        units = list(units)
        self.prewarm(units)
        out = []
        for u in units:
            try:
                out.append(self.run_unit(u))
            except UnitFailed:
                pass
            except SweepInterrupted:
                # draining: cached units keep serving, cold ones are
                # left for --resume
                continue
        return out

    def prewarm(self, units: Sequence[WorkUnit]):
        """Simulate every not-yet-cached unit, fanning out when asked.

        Duplicates are deduplicated by digest; already-cached and
        quarantined units cost nothing.  Returns the number of units
        attempted.  Failures are recorded, not raised — the sweep's
        remaining units always complete.
        """
        units = list(units)
        todo: dict = {}
        seen: set = set()
        warm = 0
        for u in units:
            d = self.digest_of(u)
            if d in seen:
                continue
            seen.add(d)
            if d in self._failed:
                continue
            payload, _ = self._lookup(d)
            if payload is None:
                todo[d] = u
            else:
                warm += 1
                if d in self._resumed_done:
                    self.stats.resumed_hits += 1
                    metrics.counter("exec.resume.hits").inc()
        if self.journal is not None:
            self.journal.record_plan(len(seen), len(todo))
        if not todo:
            return 0
        prog = self._progress_line = ProgressLine(
            len(seen), label="sweep", mode=self.progress
        ) if self.progress != "off" else None
        if prog is not None:
            for _ in range(warm):
                prog.tick(hit=True)
        try:
            with tspans.span(
                "sweep.prewarm", "engine",
                units=len(seen), todo=len(todo), jobs=self.jobs,
            ):
                self._run_queue(todo)
        finally:
            if prog is not None:
                prog.close()
            self._progress_line = None
        return len(todo)

    # -- the cold-unit queue -----------------------------------------------
    def _run_queue(self, todo: dict) -> None:
        """Run ``todo`` (digest -> unit) through one :class:`UnitQueue`.

        Workers take from it when ``jobs > 1`` and more than one unit is
        cold, else (or once no worker can be forked) the calling thread,
        the one SIGALRM's ``timeout`` reaches.  A drain stops admission
        and, once its grace expires, abandons what is still running
        (journal ``lease`` without ``done``: resume re-runs it).  Every
        worker is reaped before this returns, so its CPU counts as this
        process's children's.
        """
        queue = UnitQueue(self.retries, self.backoff)
        for d, u in todo.items():
            queue.push(d, unit_to_dict(u), u.label())
        forked = self.jobs > 1 and len(todo) > 1

        def take(slot=None):
            # dispatcher threads (the calling thread's slot is None) end
            # once forking failed or a callback raised
            def stop():
                return self.draining or not queue or (
                    slot is not None and (not forked or core.error is not None)
                )

            with queue.cond:
                job = queue.take(stop)
                if job is not None and self.journal is not None:
                    self.journal.record_lease(job.digest, job.label, job.attempt)
                return job

        def settle(job, code, reply):
            nonlocal forked
            d, u = job.digest, todo[job.digest]
            with queue.cond:
                if code == UNAVAILABLE:
                    # never ran: the calling thread runs it once the workers end
                    if forked:
                        log.warn(
                            "dispatch.unavailable",
                            f"{reply['err']['message']}; falling back to "
                            "sequential execution",
                        )
                    forked = False
                    queue.put_back(job)
                    return
                verdict = queue.settle(job, code, reply)
                if self.journal is not None:
                    # a done vouches for a result the attempt already put
                    # durably: a crash before it re-runs, never fabricates
                    self.journal.record_settle(job, verdict, reply)
                if verdict == "done":
                    self._store(u, d, reply["ok"])
                elif verdict == "fail":
                    self._record_failure(u, d, reply["err"], job.attempt)

        if forked:
            tr = tspans.tracer()
            core = Dispatcher(
                self.jobs, self.cache, take, settle,
                keep=lambda job: not self._grace_expired(),
                timeout=self.timeout, faults=self.faults,
                span_ctx=(tr.trace_id, tspans.current_span_id()) if tr else None,
            )
            try:
                core.start().join()
            finally:
                core.shutdown(time.monotonic() + 5.0)
            if core.error is not None:
                raise core.error
        while (job := take()) is not None:
            settle(job, *run_attempt(
                todo[job.digest], job.digest, job.attempt, self.faults,
                self.timeout, self.cache,
            ))
