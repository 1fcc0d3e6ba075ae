"""The crash-safe sweep daemon: queue, leases, dispatch, drain.

:class:`SweepDaemon` is the long-running core behind
``python -m repro.serve``.  It owns:

* the **durable queue** — every transition journaled to the queue WAL
  (:mod:`repro.serve.wal`) *before* it is acknowledged, so a
  ``kill -9`` of the daemon reconstructs the exact queue on restart;
* **dedup by digest** — submissions are content-addressed with the
  same :func:`~repro.exec.unit.unit_digest` the sweep engine uses, so
  two tenants asking for the same unit share one execution and one
  cache entry, and anything already in the
  :class:`~repro.exec.cache.ResultCache` is served without running;
* **leased dispatch** — each queued unit is handed to one dispatcher
  thread at a time, journaled as a ``lease`` under a token from a
  counter that never repeats across boots; the lease is that thread's
  job, so it ends when the thread settles it, when
  :meth:`SweepDaemon.stop` requeues it, or with the daemon itself (the
  next boot requeues it from the WAL);
* **admission control** — per-tenant quotas, global backpressure, and
  per-device circuit breakers (:mod:`repro.serve.admission`);
* **graceful drain** — SIGTERM stops admission, in-flight leases get a
  bounded grace, queued work stays in the WAL for the next boot, and
  the exit code follows the 0/1/75 contract.

Threading model: the leases run on the dispatch core the sweep engine
shares (:mod:`repro.exec.dispatch`): ``jobs`` dispatcher threads, each
owning one long-lived worker *process*, forked when the thread first
needs it, that holds at most one lease at a time and reports each
outcome on a pipe (a crashed worker takes down nothing but its own
lease, and the thread forks a replacement for its next one).  The
daemon supplies the core's callbacks — lease the next unit, journal the
outcome — and the WAL's heartbeat thread beats, flushes metrics
snapshots, and drains the daemon should a callback fail (the core's
:attr:`~repro.exec.dispatch.Dispatcher.error`).  The core's
:class:`~repro.exec.dispatch.UnitQueue` holds the queue under the
daemon's one condition variable, which guards all of its state; no
worker process is ever awaited while the lock is held.
"""
from __future__ import annotations

import collections
import os
import threading
import time
from typing import Optional

from .. import durable
from .. import faults as faults_mod
from ..exec.cache import (
    ResultCache,
    canonical_results_json,
    result_from_json,
)
from ..exec.dispatch import EXIT_OK, POLL_S, Dispatcher, Job, UnitQueue
from ..exec.journal import UNIT_STATES
from ..exec.lifecycle import run_outcome
from ..exec.unit import unit_digest, unit_from_dict, unit_to_dict
from ..telemetry import log, metrics
from .admission import (
    REJECT_BACKPRESSURE,
    REJECT_BREAKER,
    REJECT_DRAINING,
    AdmissionVerdict,
    BreakerBoard,
    TenantQuota,
)
from .wal import QueueWAL, TicketEntry, UnitEntry, wal_path

__all__ = ["SweepDaemon", "SubmitOutcome"]


class SubmitOutcome(dict):
    """The JSON-shaped result of one submission (accepted or rejected)."""

    @property
    def accepted(self) -> bool:
        return "ticket" in self

    @property
    def status(self) -> int:
        return int(self.get("status", 200))


class SweepDaemon:
    """Queue + leases + admission + dispatch for one sweep workdir."""

    def __init__(
        self,
        cache_dir,
        jobs: int = 4,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        quota: Optional[TenantQuota] = None,
        queue_bound: int = 256,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        hb_interval: Optional[float] = None,
        faults=None,
    ) -> None:
        self.cache_dir = str(cache_dir)
        self.cache = ResultCache(cache_dir)
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.quota = quota if quota is not None else TenantQuota(
            max_inflight=self.jobs
        )
        self.queue_bound = max(1, int(queue_bound))
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown)
        self.hb_interval = (
            durable.heartbeat_interval() if hb_interval is None
            else float(hb_interval)
        )
        self.faults = (
            faults_mod.from_spec(faults) if faults is not None
            else faults_mod.from_env()
        )

        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        #: the WAL's live fold (see start()): digest -> UnitEntry, and
        #: ticket id -> TicketEntry
        self._units: dict = {}
        self._tickets: dict = {}
        #: queued and leased units, under the daemon's own condition
        self._queue = UnitQueue(
            retries, backoff, name="serve", cond=self._work,
        )
        self._closed = False  # set by stop(): no lease outcome
        self._rejects: dict = {}  # tenant -> count
        self._stop = threading.Event()
        self._draining = threading.Event()
        #: the dispatch core running the leases (see repro.exec.dispatch)
        self._core = Dispatcher(
            self.jobs, self.cache, self._take, self._settle,
            keep=lambda job: not self._closed, timeout=self.timeout,
            faults=self.faults,
            name="serve",
        )
        self.epoch = 0
        self.started_unix: Optional[float] = None
        self.reclaimed_on_boot = 0
        self.wal: Optional[QueueWAL] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SweepDaemon":
        """Replay the WAL, reclaim orphaned leases, start the threads."""
        self.wal = QueueWAL(wal_path(self.cache_dir))
        rep = self.wal.replay
        self._units, self._tickets = rep.units, rep.tickets
        self.epoch = rep.epoch + 1
        self.wal.record_boot(self.epoch, self.jobs)
        self.started_unix = time.time()
        # every lease open at the previous daemon's death died with its
        # dispatcher thread: requeue the unit, journal the reclaim — the
        # old worker's result, if it still lands in the cache, is
        # idempotent and byte-identical
        for d, token in rep.open_leases.items():
            self.wal.record_requeue(d, "daemon-restart", token)
            self.reclaimed_on_boot += 1
            metrics.counter("serve.reclaims").inc()
        for d in rep.queued_digests():
            entry = self._units[d]
            self._queue.push(d, entry.unit, entry.label, entry.attempts)
        if self.reclaimed_on_boot:
            log.warn(
                "serve.reclaim",
                f"reclaimed {self.reclaimed_on_boot} orphaned lease(s) "
                f"from a previous daemon (epoch {self.epoch - 1})",
            )
        self.cache.purge_tmp()
        self._core.start()
        self.wal.start_heartbeat(self.hb_interval, self._counts, self._housekeep)
        log.info(
            "serve.boot",
            f"daemon up: epoch {self.epoch}, {self.jobs} dispatchers, "
            f"{len(self._queue)} unit(s) queued from WAL replay",
        )
        return self

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop admission; in-flight leases finish, queued work persists."""
        with self._work:
            if self._draining.is_set():
                return
            self._draining.set()
            if self.wal is not None:
                self.wal.record_drain()
            metrics.counter("serve.drains").inc()
            self._work.notify_all()
        log.warn("serve.drain", "drain requested: admission stopped")

    def stop(self, grace: float = 30.0) -> dict:
        """Drain, give in-flight leases ``grace`` seconds, shut down.

        Returns the shutdown summary: terminal WAL state, counts, the
        dispatch core's error (if a callback failed), and the process
        exit code under the 0/1/75 contract (75 when queued or reclaimed
        work remains for the next boot, else 1 on an unexpected failure
        or a core error).
        """
        self.drain()
        with self._work:
            self._stop.set()
            self._work.notify_all()
        self.wal.stop_heartbeat()
        deadline = time.monotonic() + max(0.0, float(grace))
        self._core.join(deadline)
        # grace exhausted: the stragglers' leases are requeued so the next
        # boot re-dispatches (nothing is lost); their dispatchers see
        # _closed at the next poll and kill their workers
        with self._work:
            self._closed = True
            for job in list(self._queue.running.values()):
                self.wal.record_requeue(job.digest, "drain-killed", job.token)
                metrics.counter("serve.reclaims").inc()
                self._queue.put_back(job)
            counts = self._counts()
            remaining = counts["queued"] + counts["leased"]
            state = "stopped" if remaining == 0 else "interrupted"
            self.wal.close(state)
        self._core.join(time.monotonic() + 5.0)
        self._core.shutdown(deadline)
        unexpected = sum(
            1 for u in self._units.values()
            if u.state == "failed" and not u.injected
        )
        error = self._error()
        _, code = run_outcome(remaining > 0, unexpected + bool(error))
        log.info(
            "serve.stop",
            f"daemon down: {state}, {remaining} unit(s) left for the next "
            f"boot, exit {code}",
        )
        return {
            "state": state, "remaining": remaining,
            "unexpected_failures": unexpected, "error": error,
            "exit_code": code,
        }

    # -- admission ---------------------------------------------------------
    def _outstanding_of(self, tenant: str) -> int:
        return sum(
            1 for u in self._units.values()
            if tenant in u.tenants and u.state in ("queued", "leased")
        )

    def _inflight_of(self, tenant: str) -> int:
        return sum(self._units[d].owner == tenant for d in self._queue.running)

    def _reject(
        self, tenant: str, reason: str, count: int, detail: str = ""
    ) -> SubmitOutcome:
        self.wal.record_reject(tenant, reason, count)
        self._rejects[tenant] = self._rejects.get(tenant, 0) + 1
        metrics.counter(f"serve.rejects.{reason}").inc()
        verdict = AdmissionVerdict(False, reason, detail)
        log.warn(
            "serve.reject",
            f"rejected {count} unit(s) from tenant {tenant!r}: "
            f"{reason}{' (' + detail + ')' if detail else ''}",
        )
        return SubmitOutcome(
            error=reason, detail=detail, status=verdict.status, tenant=tenant,
        )

    def submit(self, tenant: str, unit_dicts: list) -> SubmitOutcome:
        """Admit (or reject, atomically) one submission of unit dicts.

        Each unit dict is canonicalised and digested before the state
        lock is taken, so a malformed unit is rejected without touching
        the queue.
        """
        tenant = str(tenant or "default")
        if not unit_dicts:
            return SubmitOutcome(error="empty submission", status=400)
        try:
            units = [unit_from_dict(d) for d in unit_dicts]
            digests = [unit_digest(u) for u in units]
        except Exception as e:
            return SubmitOutcome(
                error="bad unit", detail=f"{type(e).__name__}: {e}", status=400
            )
        # ordered dedup within the submission itself
        uniq: dict = {}
        for u, dg in zip(units, digests):
            uniq.setdefault(dg, u)
        with self._work:
            if (self._draining.is_set() or self._stop.is_set()
                    or self._core.error is not None):
                return self._reject(tenant, REJECT_DRAINING, len(uniq))
            open_devs = self.breakers.open_devices(
                {u.device for u in uniq.values()}
            )
            if open_devs:
                return self._reject(
                    tenant, REJECT_BREAKER, len(uniq),
                    f"circuit open for {', '.join(open_devs)}",
                )
            new_outstanding = new_queued = 0
            for dg, u in uniq.items():
                entry = self._units.get(dg)
                if entry is not None and entry.state in ("done", "failed"):
                    continue
                if entry is None and dg in self.cache:
                    continue  # will be served from cache at admission
                if entry is None:
                    new_queued += 1
                if entry is None or tenant not in entry.tenants:
                    new_outstanding += 1
            verdict = self.quota.admit(
                self._outstanding_of(tenant), new_outstanding
            )
            if not verdict.ok:
                return self._reject(
                    tenant, verdict.reason, len(uniq), verdict.detail
                )
            queued_now = sum(
                1 for u in self._units.values() if u.state == "queued"
            )
            if queued_now + new_queued > self.queue_bound:
                return self._reject(
                    tenant, REJECT_BACKPRESSURE, len(uniq),
                    f"{queued_now} queued + {new_queued} new > "
                    f"bound {self.queue_bound}",
                )
            # admitted: the WAL's fold records the ticket and its units
            ticket = "t-" + os.urandom(6).hex()
            deduped = cached = 0
            for dg, u in uniq.items():
                known = dg in self._units
                unit_dict = unit_to_dict(u)
                self.wal.record_submit(ticket, tenant, dg, u.label(), unit_dict)
                if known:
                    deduped += 1
                elif dg in self.cache:
                    self.wal.record_done(dg, "cache")
                    cached += 1
                    metrics.counter("serve.done.cache").inc()
                else:
                    self._queue.push(dg, unit_dict, u.label())
            metrics.counter("serve.submits").inc()
            metrics.counter("serve.units.submitted").inc(len(uniq))
            self._work.notify_all()
        log.info(
            "serve.submit",
            f"ticket {ticket}: {len(uniq)} unit(s) from tenant {tenant!r} "
            f"({cached} cache-served, {deduped} deduped)",
        )
        return SubmitOutcome(
            ticket=ticket, tenant=tenant, units=len(uniq),
            deduped=deduped, cached=cached, status=200,
        )

    # -- dispatch ----------------------------------------------------------
    def _stopping(self) -> bool:
        # a failed callback left the queue unsettled: dispatch no more
        return self._stop.is_set() or self._core.error is not None

    def _has_slot(self, digest: str) -> bool:  # the tenant in-flight cap
        owner = self._units[digest].owner
        return self._inflight_of(owner) < self.quota.max_inflight

    def _take(self, slot: int) -> Optional[Job]:
        """The core's ``take``: lease the next unit; None once stopping."""
        with self._work:
            while True:
                job = self._queue.take(self._stopping, self._has_slot)
                if job is None:
                    return None
                payload = self.cache.get(job.digest)
                if payload is not None:
                    # dedup against work finished since this was queued
                    self._queue.settle(job, EXIT_OK, {"ok": payload})
                    self.wal.record_done(job.digest, "cache")
                    metrics.counter("serve.done.cache").inc()
                    continue
                job.token = self.wal.replay.next_token
                self.wal.record_lease(job.digest, job.label, job.attempt, job.token)
                metrics.counter("serve.leases").inc()
                return job

    # -- outcomes ----------------------------------------------------------
    def _settle(self, job: Job, code: int, reply: dict) -> None:
        """The core's ``settle``: journal the queue's verdict, end the lease.

        Only the lease's own thread settles it (the queue's single
        dispatch), so at most one ``done`` is journaled per digest.  A
        failed fork costs an attempt: with no in-process fallback, a
        daemon that cannot fork would spin.
        """
        with self._work:
            if self._closed:
                return  # stop() already requeued and journaled the lease
            verdict = self._queue.settle(job, code, reply)
            self.wal.record_settle(job, verdict, reply)
            entry = self._units[job.digest]
            if verdict == "done":
                metrics.counter("serve.done.run").inc()
                self._record_breaker(entry, success=True)
            elif verdict == "fail":
                metrics.counter("serve.failed").inc()
                if entry.injected:
                    metrics.counter("serve.failed.injected").inc()
                self._record_breaker(entry, success=False)
                log.warn(
                    "serve.failed",
                    f"unit {entry.label} failed terminally ({entry.kind}"
                    f"{', injected' if entry.injected else ''})",
                )

    def _record_breaker(self, entry: UnitEntry, success: bool) -> None:
        device = entry.unit.get("device", "")
        if not device:
            return
        breaker = self.breakers.get(device)
        before = breaker.state
        if success:
            breaker.record_success()
        else:
            breaker.record_failure()
        if breaker.state != before:
            self.wal.record_breaker(device, breaker.state)
            metrics.counter(f"serve.breaker.{breaker.state}").inc()
            log.warn(
                "serve.breaker",
                f"circuit for device {device!r}: {before} -> {breaker.state}",
            )

    # -- housekeeping ------------------------------------------------------
    def _housekeep(self) -> None:
        """After each WAL beat: drain a failed core, flush the metrics."""
        if self._core.error is not None:
            self.drain()  # nothing dispatches any more: stop admitting
        try:
            metrics.write_snapshot_file(
                self.cache_dir, "serve", metrics.registry().snapshot()
            )
        except OSError:
            pass  # a full disk must not kill the daemon it describes

    # -- introspection -----------------------------------------------------
    def _error(self) -> Optional[str]:
        """The dispatch core's error, as text; None while it is healthy."""
        e = self._core.error
        return None if e is None else f"{type(e).__name__}: {e}"

    def _counts(self) -> dict:
        with self._lock:
            counts = dict.fromkeys(UNIT_STATES, 0)
            for u in self._units.values():
                counts[u.state] += 1
            return counts

    def status(self) -> dict:
        """The ``/status`` document: queue, tenants, leases, breakers."""
        with self._lock:
            counts = self._counts()
            tenants: dict = collections.defaultdict(
                lambda: dict.fromkeys((*UNIT_STATES, "rejected"), 0)
            )
            for u in self._units.values():
                for t in u.tenants:
                    tenants[t][u.state] += 1
            for t, n in self._rejects.items():
                tenants[t]["rejected"] = n
            for t, row in tenants.items():
                row["outstanding"] = row["queued"] + row["leased"]
                row["inflight"] = self._inflight_of(t)
            now = time.monotonic()
            leases = [
                {
                    "digest": job.digest[:12],
                    "label": job.label,
                    "token": job.token,
                    "attempt": job.attempt,
                    "pid": job.pid,
                    "age_s": round(now - job.taken, 3),
                }
                # taken, so tokened, in insertion order
                for job in self._queue.running.values()
            ]
            complete_tickets = sum(
                1 for tk in self._tickets.values()
                if self._ticket_complete_locked(tk)
            )
            return {
                "pid": os.getpid(),
                "state": "draining" if self._draining.is_set() else "running",
                "epoch": self.epoch,
                "jobs": self.jobs,
                "started_unix": self.started_unix,
                "uptime_s": (
                    round(time.time() - self.started_unix, 3)
                    if self.started_unix else None
                ),
                "hb_interval_s": self.hb_interval,
                "units": counts,
                "reclaimed_on_boot": self.reclaimed_on_boot,
                "tickets": {
                    "total": len(self._tickets),
                    "complete": complete_tickets,
                },
                "tenants": dict(sorted(tenants.items())),
                "quota": {
                    "max_outstanding": self.quota.max_outstanding,
                    "max_inflight": self.quota.max_inflight,
                    "queue_bound": self.queue_bound,
                },
                "leases": leases,
                "breakers": self.breakers.as_dict(),
                "wal": str(wal_path(self.cache_dir)),
            }

    def healthz(self) -> dict:
        counts = self._counts()
        error = self._error()
        return {
            "ok": error is None,
            "error": error,
            "pid": os.getpid(),
            "state": "draining" if self._draining.is_set() else "running",
            "epoch": self.epoch,
            "queued": counts["queued"],
            "leased": counts["leased"],
        }

    def _ticket_complete_locked(self, tk: TicketEntry) -> bool:
        return all(
            self._units[d].state in ("done", "failed") for d in tk.digests
            if d in self._units
        )

    def ticket_status(self, ticket: str) -> Optional[dict]:
        with self._lock:
            tk = self._tickets.get(ticket)
            if tk is None:
                return None
            rows = []
            counts = dict.fromkeys(UNIT_STATES, 0)
            for d in tk.digests:
                u = self._units.get(d)
                if u is None:
                    continue
                counts[u.state] += 1
                rows.append(
                    {
                        "label": u.label, "digest": d, "state": u.state,
                        "source": u.source, "kind": u.kind,
                        "injected": u.injected, "attempts": u.attempts,
                    }
                )
            return {
                "ticket": ticket,
                "tenant": tk.tenant,
                "submitted_unix": tk.submitted_unix,
                "complete": self._ticket_complete_locked(tk),
                "units": counts,
                "rows": rows,
            }

    def ticket_results_json(self, ticket: str) -> Optional[str]:
        """Canonical results document for a *complete* ticket.

        Byte-identical to a ``--results-json`` run of the same units
        through any sweep CLI: same payloads (content-addressed cache),
        same :func:`~repro.exec.cache.canonical_results_json` rendering.
        None while the ticket still has queued/leased units.
        """
        with self._lock:
            tk = self._tickets.get(ticket)
            if tk is None or not self._ticket_complete_locked(tk):
                return None
            done = [
                d for d in tk.digests
                if d in self._units and self._units[d].state == "done"
            ]
        results = []
        for d in done:
            payload = self.cache.get(d)
            if payload is None:
                raise RuntimeError(
                    f"result for {d[:8]} vanished from the cache "
                    "(gc raced a live ticket?)"
                )
            results.append(result_from_json(payload, cached=True))
        return canonical_results_json(results)

    def wait_ticket(self, ticket: str, timeout: float = 60.0) -> bool:
        """Block until a ticket is complete (True) or ``timeout`` passes."""
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._work:
            while True:
                tk = self._tickets.get(ticket)
                if tk is not None and self._ticket_complete_locked(tk):
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._work.wait(min(remaining, POLL_S))
