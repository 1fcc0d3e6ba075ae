"""The sweep execution engine: parallel fan-out + memoization + fault tolerance.

A :class:`SweepExecutor` serves work units through three layers:

1. an in-process memo table (digest -> payload),
2. an optional on-disk :class:`~repro.exec.cache.ResultCache`,
3. actual simulation — sequentially, or fanned out over a
   ``concurrent.futures.ProcessPoolExecutor`` when ``jobs > 1``.

All results — hits and misses alike — are round-tripped through the
JSON serialization layer, so the rendered reports are byte-identical
whatever mix of cache hits, sequential runs, and parallel workers
produced them.  If the process pool cannot be created or dies (no
semaphores in a sandbox, fork bans, ...), the engine degrades to the
sequential path and still completes the sweep.

Partial failure degrades gracefully instead of killing the sweep:

* pool workers report exceptions as structured payloads, so one bad
  unit never aborts the round (and per-future errors are collected,
  not propagated);
* a worker that *dies* (signal, ``os._exit``) breaks its pool — the
  engine re-probes each suspect unit in a disposable single-worker
  pool to separate the poison from the collateral;
* :class:`~repro.errors.TransientError` failures are retried with
  bounded exponential backoff (``retries``/``backoff``);
* ``timeout`` seconds of wall clock cut a hung unit off (SIGALRM at
  the executing process, pool worker or main);
* every terminal failure is recorded as a :class:`FailedUnit` in
  :class:`SweepStats` and the unit's digest is quarantined: later
  requests raise :class:`~repro.errors.UnitFailed` instead of
  re-executing the poison (in particular, the sequential fallback
  never re-runs a unit that just killed a worker).

Crash-safety (see :mod:`repro.exec.lifecycle` / :mod:`repro.exec.journal`):

* an optional :class:`~repro.exec.journal.RunJournal` receives a
  fsynced ``start``/``done``/``fail`` record around every execution, so
  a killed process leaves a replayable record of exactly which units
  were in flight;
* :meth:`SweepExecutor.request_drain` (wired to SIGINT/SIGTERM by
  :class:`~repro.exec.lifecycle.GracefulShutdown`) stops admission:
  in-flight units get a bounded grace period, everything else is left
  for a ``--resume`` rerun;
* a unit that aborts at enqueue (Table VI "ABT") is reported by the
  launch that decided it: every :class:`UnitRecord` carries its
  result's failure tag, whether the unit ran in a pool worker, ran
  sequentially or was served from cache;
* repeated broken-pool incidents demote the run to sequential
  execution (*degraded mode*) instead of churning through doomed pools.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import os
import signal
import threading
import time
import traceback
from typing import Iterable, Optional, Sequence

from .. import durable
from .. import faults as faults_mod
from ..errors import (
    FailureKind,
    SweepInterrupted,
    UnitFailed,
    UnitTimeout,
    classify,
    is_injected,
)
from ..telemetry import log, metrics
from ..telemetry import spans as tspans
from ..telemetry.progress import ProgressLine
from .cache import ResultCache, result_from_json, result_to_json
from .unit import UnitResult, WorkUnit, execute, unit_digest

__all__ = ["SweepExecutor", "SweepStats", "UnitRecord", "FailedUnit", "retry_delay"]

_POOL_ERRORS = (OSError, concurrent.futures.BrokenExecutor, RuntimeError)


def retry_delay(backoff: float, attempt: int, digest: str = "") -> float:
    """Exponential backoff with deterministic, digest-seeded jitter.

    Concurrent tenants retrying the same transient at the same moment
    would otherwise thundering-herd the pool: every unit of a round
    sleeps ``backoff * 2**(attempt-1)`` and they all wake together.
    The jitter spreads wakeups over ``[0.5, 1.5)`` of the exponential
    term, seeded from ``(digest, attempt)`` via SHA-256 — a pure
    function, so the same unit always sleeps the same amount and chaos
    tests stay exactly reproducible (no RNG state anywhere).
    """
    import hashlib

    base = max(0.0, float(backoff)) * (2 ** max(0, attempt - 1))
    if not digest:
        return base
    blob = f"retry:{digest}:{attempt}".encode()
    frac = int(hashlib.sha256(blob).hexdigest()[:8], 16) / float(1 << 32)
    return base * (0.5 + frac)


def _pool_worker_init() -> None:
    """Initializer for every pool worker process.

    Marks the process as a pool worker (fault-injection attribution)
    and ignores SIGINT: a terminal Ctrl-C reaches the whole foreground
    process group, and the drain protocol wants workers to *finish*
    their in-flight unit while the parent stops admission.
    """
    faults_mod.mark_pool_worker()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass


@dataclasses.dataclass
class UnitRecord:
    """Per-unit accounting line: what ran, how it was served, how long."""

    label: str
    digest: str
    seconds: float  # wall seconds spent serving this request
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
        #: set when degraded mode kicked in: {"incidents": n, "reason": s}
        self.demoted: Optional[dict] = None
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
            "demoted": self.demoted,
            "resumed": self.resumed,
            "resumed_hits": self.resumed_hits,
            "units": [dataclasses.asdict(r) for r in self.records],
            "failures": [dataclasses.asdict(f) for f in self.failures],
        }


@contextlib.contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`UnitTimeout` if the body runs longer than ``seconds``.

    SIGALRM-based, so it cuts off even a unit stuck in a pure-Python
    loop; silently unenforced off the main thread or on platforms
    without ``setitimer`` (the parallel path still enforces it, since
    pool workers execute on their own main threads).
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise UnitTimeout(f"unit exceeded --timeout={seconds:g}s", seconds=seconds)

    prev = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev)


def _execute_payload(unit: WorkUnit, attempt: int = 1, faults=None) -> dict:
    """Simulate one unit and return its JSON payload."""
    return result_to_json(execute(unit, attempt=attempt, faults=faults))


def _virtual_launch_spans(payload: dict, anchor) -> None:
    """Re-anchor a unit's simulated launch time onto the wall timeline.

    The simulator's clock is virtual; to show "where the simulated time
    went" on the same trace as engine scheduling, the aggregate launch
    profile of a freshly-run unit is laid out at the wall time its
    attempt span started: launch overhead first, then the kernel span.
    """
    tr = tspans.tracer()
    profile = payload.get("profile")
    if tr is None or anchor is None or not profile:
        return
    t0 = anchor.t0
    overhead = float(profile.get("launch_overhead_s") or 0.0)
    kernel_s = float(profile.get("total_s") or 0.0)
    common = {
        "device": profile.get("device"),
        "api": profile.get("api"),
        "virtual": True,
    }
    if overhead > 0:
        tr.record_span(
            f"{profile.get('api')} launch overhead", "launch",
            t0, t0 + overhead, parent_id=anchor.span_id, **common,
        )
    tr.record_span(
        str(profile.get("kernel")), "launch",
        t0 + overhead, t0 + overhead + kernel_s,
        parent_id=anchor.span_id,
        bound=profile.get("bound_term") or profile.get("bound"),
        dram_bytes=profile.get("dram_bytes"),
        **common,
    )


def _worker_payload(
    unit: WorkUnit,
    attempt: int,
    faults,
    timeout: Optional[float],
    span_ctx=None,
) -> dict:
    """Process-pool worker: never raises for ordinary failures.

    Returns ``{"ok": payload}`` or ``{"err": {...}}`` so a unit that
    throws (or times out) costs exactly one structured error instead of
    poisoning the pool; only a genuine process death breaks the pool.
    Each response also carries the worker's telemetry — finished span
    events (parented under ``span_ctx``) and a metrics-registry
    snapshot — which the parent folds into its own run record.
    """
    tr = tspans.worker_tracer(span_ctx)
    out: dict = {}
    with metrics.use_registry() as reg, tspans.use_tracer(tr):
        try:
            with tspans.span(
                "unit.attempt", "unit", label=unit.label(), attempt=attempt
            ) as attempt_span:
                with _deadline(timeout):
                    payload = _execute_payload(unit, attempt, faults)
                _virtual_launch_spans(payload, attempt_span)
            out["ok"] = payload
        except Exception as e:
            out["err"] = {
                "type": type(e).__name__,
                "kind": classify(e).value,
                "message": str(e),
                "traceback": traceback.format_exc(),
                "injected": is_injected(e) or _hang_induced(e, unit, faults),
            }
        if tr is not None:
            tr.finish()
        out["telemetry"] = {
            "spans": tr.export_events() if tr is not None else [],
            "metrics": reg.snapshot(),
        }
    return out


def _hang_induced(e, unit: WorkUnit, faults) -> bool:
    """A timeout caused by a planted ``hang`` fault counts as injected.

    The alarm fires outside the injector, so the UnitTimeout itself
    carries no ``injected`` flag; attribution comes from the plan.
    """
    return (
        isinstance(e, UnitTimeout)
        and faults is not None
        and faults.planned(unit.label(), "hang") is not None
    )


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
        progress: bool = True,
        journal=None,
        resumed=None,
        grace: float = 30.0,
        demote_after: int = 3,
        adaptive_jobs: bool = False,
    ) -> None:
        self.jobs = max(1, int(jobs))
        #: clamp pool fan-out to the machine's core count; workers past
        #: it add fork/pickle/scheduling overhead with zero throughput
        #: (opt-in: fault-injection callers want real workers regardless)
        self.adaptive_jobs = bool(adaptive_jobs)
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
        #: line), "plain" (periodic lines for CI logs), "off"; bools are
        #: accepted for back-compat (True -> auto, False -> off)
        if isinstance(progress, str):
            self.progress = progress
        else:
            self.progress = "auto" if progress else "off"
        self._progress_line: Optional[ProgressLine] = None
        self._mem: dict = {}  # digest -> payload
        self._digests: dict = {}  # WorkUnit -> digest
        self._failed: dict = {}  # digest -> FailedUnit (quarantined units)
        #: optional RunJournal receiving start/done/fail records
        self.journal = journal
        #: JournalReplay this run resumes, when any
        self.resumed = resumed
        self._resumed_done: set = set(resumed.completed) if resumed else set()
        if resumed is not None:
            self.stats.resumed = resumed.summary()
        self.grace = max(0.0, float(grace))
        #: broken-pool incidents before demoting to sequential execution
        self.demote_after = max(1, int(demote_after))
        self._pool_incidents = 0
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

    @property
    def demoted(self) -> bool:
        """True once degraded mode demoted the run to sequential."""
        return self.stats.demoted is not None

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

    def _note_pool_incident(self, n: int, reason: str) -> None:
        """Count broken-pool incidents; demote past the threshold."""
        if n <= 0:
            return
        self._pool_incidents += n
        metrics.counter("exec.pool.incidents").inc(n)
        if self.demoted or self._pool_incidents < self.demote_after:
            return
        self._demote(reason)

    def _demote(self, reason: str) -> None:
        """Degraded mode: finish the run sequentially, permanently."""
        if self.demoted:
            return
        self.jobs = 1
        self.stats.demoted = {
            "incidents": self._pool_incidents, "reason": reason,
        }
        metrics.counter("exec.demotions").inc()
        tspans.event(
            "sweep.demoted", "engine",
            incidents=self._pool_incidents, reason=reason,
        )
        log.warn(
            "sweep.demoted",
            f"degraded mode: {self._pool_incidents} broken-pool incidents "
            f"({reason}); finishing the run sequentially",
        )
        if self.journal is not None:
            self.journal.record_demote(self._pool_incidents, reason)

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

    def _jstart(self, digest: str, unit: WorkUnit, attempt: int) -> None:
        if self.journal is not None:
            self.journal.record_start(digest, unit.label(), attempt)

    def _jdone(self, digest: str, source: str = "run") -> None:
        if self.journal is not None:
            self.journal.record_done(digest, source)

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

    def _store(self, digest: str, payload: dict, label: str = "") -> None:
        self._mem[digest] = payload
        if self.cache is not None:
            self.cache.put(digest, payload)
            if label and self.faults is not None and self.faults.corrupts(label):
                faults_mod.corrupt_file(self.cache.path_for(digest))
                metrics.counter("faults.injected.corrupt").inc()
                tspans.event(
                    "fault.injected", "fault", kind="corrupt", label=label,
                )

    # -- failure bookkeeping ----------------------------------------------
    def _record_failure(
        self,
        unit: WorkUnit,
        digest: str,
        kind: str,
        error: str,
        tb: str,
        attempts: int,
        injected: bool,
    ) -> FailedUnit:
        failed = FailedUnit(
            label=unit.label(), digest=digest, kind=kind, error=error,
            traceback=tb, attempts=attempts, injected=injected,
        )
        self.stats.failures.append(failed)
        self._failed[digest] = failed
        if self.journal is not None:
            self.journal.record_fail(digest, kind, injected)
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
        return failed

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
                if self.draining:
                    # no new admissions during a drain; the journal's
                    # missing `done` record re-enqueues this on --resume
                    raise SweepInterrupted(unit.label())
                payload = self._simulate_with_retry(unit, digest)
            if serve is not None:
                serve.attrs["source"] = source
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

    def _simulate_with_retry(self, unit: WorkUnit, digest: str) -> dict:
        """Sequential execution with timeout, bounded retry, quarantine."""
        attempt = 0
        while True:
            attempt += 1
            self._jstart(digest, unit, attempt)
            try:
                with tspans.span(
                    "unit.attempt", "unit", label=unit.label(), attempt=attempt
                ) as attempt_span:
                    with _deadline(self.timeout):
                        payload = _execute_payload(unit, attempt, self.faults)
                    _virtual_launch_spans(payload, attempt_span)
            except Exception as e:
                kind = classify(e)
                if kind is FailureKind.TRANSIENT and attempt <= self.retries:
                    delay = retry_delay(self.backoff, attempt, digest)
                    metrics.counter("exec.retries").inc()
                    tspans.event(
                        "retry.backoff", "unit", label=unit.label(),
                        attempt=attempt, sleep_s=delay,
                    )
                    log.info(
                        "unit.retry", label=unit.label(), attempt=attempt,
                        sleep_s=round(delay, 4), error=str(e),
                    )
                    time.sleep(delay)
                    continue
                failed = self._record_failure(
                    unit, digest, kind=kind.value, error=str(e),
                    tb=traceback.format_exc(), attempts=attempt,
                    injected=is_injected(e) or _hang_induced(e, unit, self.faults),
                )
                raise UnitFailed(
                    failed.label, kind, failed.error, injected=failed.injected
                ) from e
            metrics.histogram("exec.unit_sim_s").observe(payload["seconds"])
            self._store(digest, payload, unit.label())
            # the result is durably in the cache before the journal says
            # done — a crash between the two re-runs, never fabricates
            self._jdone(digest)
            return payload

    def prewarm(self, units: Sequence[WorkUnit], jobs: Optional[int] = None):
        """Simulate every not-yet-cached unit, fanning out when asked.

        Duplicates are deduplicated by digest; already-cached and
        quarantined units cost nothing.  Returns the number of units
        attempted.  Failures are recorded, not raised — the sweep's
        remaining units always complete.
        """
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        if self.adaptive_jobs and jobs > 1:
            hw = os.cpu_count() or 1
            if jobs > hw:
                metrics.gauge("exec.pool.jobs_clamped").set(jobs - hw)
                jobs = hw
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
                units=len(seen), todo=len(todo), jobs=jobs,
            ):
                if jobs > 1 and len(todo) > 1 and not self.draining:
                    self._prewarm_parallel(todo, min(jobs, self.jobs))
                # anything the pool could not produce runs sequentially —
                # except quarantined units, which are never re-executed
                # in-process
                for d, u in todo.items():
                    if self.draining:
                        break  # stop admission; --resume picks these up
                    if d in self._failed or self._lookup(d)[0] is not None:
                        continue
                    t0 = time.perf_counter()
                    try:
                        payload = self._simulate_with_retry(u, d)
                    except UnitFailed:
                        # failure count was bumped by _record_failure;
                        # the tick only advances done/total
                        if prog is not None:
                            prog.tick()
                        continue
                    wall = time.perf_counter() - t0
                    self.stats.record(u, d, wall, payload, "run")
                    if prog is not None:
                        prog.tick(seconds=wall)
        finally:
            if prog is not None:
                prog.close()
            self._progress_line = None
        return len(todo)

    # -- parallel fan-out --------------------------------------------------
    def _prewarm_parallel(self, todo: dict, jobs: int) -> None:
        """Pool rounds with per-future error collection and crash probing.

        Each round submits the pending units; worker exceptions come
        back as structured errors (recorded or retried), and a broken
        pool turns its unfinished futures into *suspects* that are
        probed one-by-one in disposable single-worker pools.
        """
        pending = dict(todo)
        attempts = {d: 0 for d in pending}
        max_rounds = self.retries + 4  # transient budget + crash-probe slack
        for _ in range(max_rounds):
            if not pending or self.draining or self.demoted:
                return
            outcome = self._pool_round(pending, attempts, jobs)
            if outcome is None:
                return  # no pool available: sequential fallback takes over
            retry, suspects = outcome
            if suspects:
                # a broken pool is one incident, whatever its blast radius
                self._note_pool_incident(1, "worker death broke the pool")
                self._probe_suspects(suspects, attempts, retry)
            if self.demoted:
                return  # leftovers run on the sequential path
            if retry:
                # one jittered sleep for the round, seeded from the unit
                # that has retried longest, so concurrent sweeps sharing
                # a pool de-synchronize instead of herding
                worst_d = max(retry, key=lambda d: attempts[d])
                time.sleep(retry_delay(self.backoff, attempts[worst_d], worst_d))
            pending = retry
        # leftovers (pathological pool churn) fall back to the
        # sequential path in prewarm(), which quarantine-guards them

    def _span_ctx(self):
        """The (trace_id, parent_span_id) pair shipped to pool workers."""
        tr = tspans.tracer()
        if tr is None:
            return None
        return (tr.trace_id, tspans.current_span_id())

    def _tick_future(self, fut, digest: str, attempts: dict) -> None:
        """Pool done-callback: advance the live progress meter.

        Runs on the executor's callback thread as each future lands, so
        the meter moves *during* a round, not after it.  Transient
        failures that will be retried do not count as done.
        """
        prog = self._progress_line
        if prog is None:
            return
        try:
            out = fut.result()
        except Exception:
            prog.tick()  # crash suspect; the probe resolves its fate
            return
        if "ok" in out:
            prog.tick(seconds=out["ok"]["seconds"])
        elif (
            out["err"]["kind"] != FailureKind.TRANSIENT.value
            or attempts[digest] > self.retries
        ):
            prog.tick()

    def _pool_round(self, pending: dict, attempts: dict, jobs: int):
        """One submit/collect cycle; returns (retry, suspects) or None."""
        workers = min(jobs, len(pending), 32)
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                workers, initializer=_pool_worker_init
            )
        except _POOL_ERRORS as e:
            log.warn(
                "pool.unavailable",
                f"process pool unavailable ({e!r}); "
                "falling back to sequential execution",
            )
            # no pool will ever materialise here; demote outright so the
            # rest of the run doesn't retry doomed pool creation
            self._note_pool_incident(self.demote_after, f"pool unavailable: {e!r}")
            return None
        metrics.counter("exec.pool.rounds").inc()
        metrics.gauge("exec.pool.workers").set(workers)
        retry: dict = {}
        suspects: dict = {}
        futures: dict = {}
        with tspans.span(
            "pool.round", "pool", workers=workers, pending=len(pending)
        ):
            span_ctx = self._span_ctx()
            hard_stop = False
            try:
                for d, u in pending.items():
                    if self.draining:
                        break  # queued-but-unsubmitted units stay cold
                    attempts[d] += 1
                    try:
                        fut = pool.submit(
                            _worker_payload, u, attempts[d], self.faults,
                            self.timeout, span_ctx,
                        )
                    except concurrent.futures.BrokenExecutor:
                        # pool died mid-submission; resubmit next round
                        attempts[d] -= 1
                        retry[d] = u
                        continue
                    self._jstart(d, u, attempts[d])
                    futures[fut] = (d, u)
                    fut.add_done_callback(
                        lambda f, d=d: self._tick_future(f, d, attempts)
                    )
                # poll instead of a single blocking wait so a drain
                # request can cancel queued work and bound the grace
                # period for whatever is already on a worker
                not_done = set(futures)
                while not_done:
                    done, not_done = concurrent.futures.wait(
                        not_done, timeout=0.2
                    )
                    if self.draining:
                        for f in not_done:
                            f.cancel()  # only dequeues; running ones stay
                    if self._grace_expired() and any(
                        not f.done() for f in not_done
                    ):
                        hard_stop = True
                        break
                for fut, (d, u) in futures.items():
                    if fut.cancelled() or not fut.done():
                        continue  # drained; journal start without done
                    try:
                        out = fut.result()
                    except _POOL_ERRORS:
                        # the worker died under this unit *or* the unit
                        # was collateral of a crash elsewhere — probe to
                        # find out
                        suspects[d] = u
                        continue
                    self._absorb(d, u, out, attempts, retry)
            finally:
                if hard_stop:
                    # grace exhausted: stop waiting on stuck workers and
                    # reap them; their units replay as in-flight on resume.
                    # SIGKILL: a forked worker inherits the driver's
                    # SIGTERM drain handler, so terminate() would not stop it
                    for p in list(getattr(pool, "_processes", {}).values()):
                        try:
                            p.kill()
                        except (OSError, AttributeError):
                            pass
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
        if self.draining:
            # no retries or crash probes during a drain: anything
            # unresolved keeps its journal `start` and replays on resume
            return {}, {}
        return retry, suspects

    def _probe_suspects(self, suspects: dict, attempts: dict, retry: dict) -> None:
        """Re-run each crash suspect in its own disposable one-worker pool.

        The unit that actually killed the shared worker kills its probe
        pool too and is quarantined as a CRASH; innocent bystanders
        complete normally and their results are kept.
        """
        for d, u in suspects.items():
            if self.draining:
                return  # keep journal starts; resume re-runs the suspects
            attempts[d] += 1
            self._jstart(d, u, attempts[d])
            with tspans.span("pool.probe", "pool", label=u.label()):
                try:
                    with concurrent.futures.ProcessPoolExecutor(
                        1, initializer=_pool_worker_init
                    ) as pool:
                        out = pool.submit(
                            _worker_payload, u, attempts[d], self.faults,
                            self.timeout, self._span_ctx(),
                        ).result()
                except _POOL_ERRORS:
                    injected = (
                        self.faults is not None
                        and self.faults.planned(u.label(), "kill") is not None
                    )
                    self._record_failure(
                        u, d, kind=FailureKind.CRASH.value,
                        error="worker process died without reporting a result",
                        tb="", attempts=attempts[d], injected=injected,
                    )
                    # a probe pool died too: that's its own incident
                    self._note_pool_incident(1, "crash probe pool died")
                    continue
                self._absorb(d, u, out, attempts, retry)

    def _absorb(self, d: str, u: WorkUnit, out: dict, attempts: dict, retry: dict):
        """Fold one worker response into stats/cache/retry/quarantine.

        Also folds home the worker's telemetry: its finished span
        events join this process's trace (their IDs are PID-prefixed,
        their parent is the span that submitted them) and its metrics
        snapshot merges into the process registry.
        """
        tele = out.get("telemetry")
        if tele:
            tr = tspans.tracer()
            if tr is not None and tele.get("spans"):
                tr.absorb(tele["spans"])
            if tele.get("metrics"):
                metrics.registry().merge_snapshot(tele["metrics"])
        if "ok" in out:
            payload = out["ok"]
            metrics.histogram("exec.unit_sim_s").observe(payload["seconds"])
            self._store(d, payload, u.label())
            self._jdone(d)
            self.stats.record(u, d, payload["seconds"], payload, "run")
            return
        err = out["err"]
        if err["kind"] == FailureKind.TRANSIENT.value and attempts[d] <= self.retries:
            metrics.counter("exec.retries").inc()
            tspans.event(
                "retry.backoff", "unit", label=u.label(), attempt=attempts[d],
            )
            log.info(
                "unit.retry", label=u.label(), attempt=attempts[d],
                error=err["message"],
            )
            retry[d] = u
            return
        self._record_failure(
            u, d, kind=err["kind"], error=err["message"],
            tb=err["traceback"], attempts=attempts[d],
            injected=err["injected"],
        )
