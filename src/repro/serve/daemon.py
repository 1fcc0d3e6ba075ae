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
* **lease-fenced dispatch** — each cold unit is granted to exactly one
  worker process under a monotonic fencing token
  (:mod:`repro.serve.lease`); stale holders can still write the cache
  (idempotent) but their late reports are fenced;
* **admission control** — per-tenant quotas, global backpressure, and
  per-device circuit breakers (:mod:`repro.serve.admission`);
* **graceful drain** — SIGTERM stops admission, in-flight leases get a
  bounded grace, queued work stays in the WAL for the next boot, and
  the exit code follows the 0/1/75 contract.

Threading model: ``jobs`` dispatcher threads each own one long-lived
worker *process*, forked when the thread first needs it, that holds at
most one lease at a time and reports each outcome on a pipe (a crashed
worker takes down nothing but its own lease, and the thread forks a
replacement for its next one), plus one housekeeping thread that
heartbeats the WAL, flushes metrics snapshots, and reaps expired
leases.  All queue state is guarded by a single condition variable;
no worker process is ever awaited while the lock is held.
"""
from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import time
from typing import Optional

from .. import durable
from .. import faults as faults_mod
from ..errors import FailureKind
from ..exec.cache import (
    ResultCache,
    canonical_results_json,
    result_from_json,
)
from ..exec.engine import retry_delay
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
from .lease import LeaseManager, default_ttl
from .wal import QueueWAL, TicketEntry, UnitEntry
from .wal import replay as wal_replay
from .wal import serve_dir, wal_path
from .worker import EXIT_OK, EXIT_TRANSIENT, worker_loop

__all__ = ["SweepDaemon", "SubmitOutcome"]

#: how long a dispatcher waits between worker liveness polls (each poll
#: also renews the lease, so the effective renewal period is this)
_POLL_S = 0.2


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
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.quota = quota if quota is not None else TenantQuota(
            max_inflight=self.jobs
        )
        self.queue_bound = max(1, int(queue_bound))
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown)
        self.hb_interval = (
            durable.heartbeat_interval() if hb_interval is None
            else float(hb_interval)
        )
        self.lease_ttl = default_ttl(self.hb_interval)
        self.faults = (
            faults_mod.from_spec(faults) if faults is not None
            else faults_mod.from_env()
        )

        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._units: dict = {}  # digest -> UnitEntry
        self._tickets: dict = {}  # ticket id -> TicketEntry
        self._pending: collections.deque = collections.deque()
        #: digest -> monotonic time before which it must not re-dispatch
        #: (jittered transient backoff)
        self._not_before: dict = {}
        self._procs: dict = {}  # digest -> live worker Process
        #: dispatcher slot -> its worker's ``(Process, Connection)`` or None
        self._workers: list = [None] * self.jobs
        self._closed = False  # set by stop(): no lease outcome, no new worker
        self._rejects: dict = {}  # tenant -> count
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._threads: list = []
        self.epoch = 0
        self.started_unix: Optional[float] = None
        self.reclaimed_on_boot = 0
        self.wal: Optional[QueueWAL] = None
        self.leases: Optional[LeaseManager] = None
        self._housekeeper = None  # durable.every() thread

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SweepDaemon":
        """Replay the WAL, reclaim orphaned leases, start the threads."""
        rep = wal_replay(wal_path(self.cache_dir))
        self.epoch = rep.epoch + 1
        self._units = rep.units
        self._tickets = rep.tickets
        self.leases = LeaseManager(self.lease_ttl, floor=rep.next_token)
        self.wal = QueueWAL(wal_path(self.cache_dir))
        self.wal.record_boot(self.epoch, self.jobs)
        self.started_unix = time.time()
        # every lease open at the previous daemon's death is stale by
        # construction (tokens are monotonic across boots): requeue the
        # unit, journal the reclaim — the old holder's result, if it
        # still lands in the cache, is idempotent and byte-identical
        for d, token in rep.open_leases.items():
            entry = self._units.get(d)
            if entry is None or entry.state != "leased":
                continue
            entry.state = "queued"
            self.wal.record_requeue(d, token, "daemon-restart")
            self.reclaimed_on_boot += 1
            metrics.counter("serve.reclaims").inc()
        if self.reclaimed_on_boot:
            log.warn(
                "serve.reclaim",
                f"reclaimed {self.reclaimed_on_boot} orphaned lease(s) "
                f"from a previous daemon (epoch {self.epoch - 1})",
            )
        self.cache.purge_tmp()
        for d, u in self._units.items():
            if u.state == "queued":
                self._pending.append(d)
        for i in range(self.jobs):
            t = threading.Thread(
                target=self._dispatch_loop, args=(i,),
                name=f"serve-dispatch-{i}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._housekeeper = durable.every(
            self.hb_interval, self._housekeep, name="serve-housekeeping"
        )
        log.info(
            "serve.boot",
            f"daemon up: epoch {self.epoch}, {self.jobs} dispatchers, "
            f"{len(self._pending)} unit(s) queued from WAL replay",
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

        Returns the shutdown summary: terminal WAL state, counts, and
        the process exit code under the 0/1/75 contract (75 when queued
        or reclaimed work remains for the next boot).
        """
        self.drain()
        with self._work:
            self._stop.set()
            self._work.notify_all()
        self._housekeeper.stop()
        deadline = time.monotonic() + max(0.0, float(grace))
        for t in self._threads:
            t.join(max(0.1, deadline - time.monotonic()))
        # grace exhausted: kill the stragglers' workers; their leases are
        # requeued so the next boot re-dispatches (nothing is lost)
        with self._work:
            self._closed = True
            for lease in list(self.leases.active()):
                p = self._procs.pop(lease.digest, None)
                if p is not None:
                    try:
                        p.kill()
                    except (OSError, AttributeError):
                        pass
                self.leases.release(lease.digest, lease.token)
                entry = self._units.get(lease.digest)
                if entry is not None and entry.state == "leased":
                    entry.state = "queued"
                self.wal.record_requeue(lease.digest, lease.token, "drain-killed")
                metrics.counter("serve.reclaims").inc()
            counts = self._counts_locked()
            remaining = counts["queued"] + counts["leased"]
            state = "stopped" if remaining == 0 else "interrupted"
            self.wal.record_state(state)
            self.wal.close()
        # a dispatcher whose worker was killed above notices within a poll
        for t in self._threads:
            t.join(5.0)
        self._shutdown_workers(deadline)
        unexpected = sum(
            1 for u in self._units.values()
            if u.state == "failed" and not u.injected
        )
        code = 75 if remaining else (1 if unexpected else 0)
        log.info(
            "serve.stop",
            f"daemon down: {state}, {remaining} unit(s) left for the next "
            f"boot, exit {code}",
        )
        return {
            "state": state, "remaining": remaining,
            "unexpected_failures": unexpected, "exit_code": code,
        }

    # -- admission ---------------------------------------------------------
    def _outstanding_of(self, tenant: str) -> int:
        return sum(
            1 for u in self._units.values()
            if tenant in u.tenants and u.state in ("queued", "leased")
        )

    def _inflight_of(self, tenant: str) -> int:
        return sum(
            1 for lease in self.leases.active()
            if self._units[lease.digest].owner == tenant
        )

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
            if self._draining.is_set() or self._stop.is_set():
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
            # admitted: journal first, then mutate queue state
            ticket = "t-" + os.urandom(6).hex()
            tk = TicketEntry(
                ticket=ticket, tenant=tenant, digests=list(uniq),
                submitted_unix=time.time(),
            )
            self._tickets[ticket] = tk
            deduped = cached = 0
            for dg, u in uniq.items():
                unit_dict = unit_to_dict(u)
                self.wal.record_submit(ticket, tenant, dg, u.label(), unit_dict)
                entry = self._units.get(dg)
                if entry is not None:
                    deduped += 1
                    entry.tenants.add(tenant)
                    entry.tickets.add(ticket)
                    continue
                entry = self._units[dg] = UnitEntry(
                    digest=dg, label=u.label(), unit=unit_dict, owner=tenant,
                    tenants={tenant}, tickets={ticket},
                )
                if dg in self.cache:
                    entry.state = "done"
                    entry.source = "cache"
                    self.wal.record_done(dg, None, "cache")
                    cached += 1
                    metrics.counter("serve.done.cache").inc()
                else:
                    entry.state = "queued"
                    self._pending.append(dg)
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
    def _next_dispatchable(self) -> Optional[str]:
        """Pop the first queued digest whose owner has an in-flight slot."""
        now = time.monotonic()
        for _ in range(len(self._pending)):
            d = self._pending.popleft()
            entry = self._units.get(d)
            if entry is None or entry.state != "queued":
                continue  # stale pointer (completed via cache, failed, ...)
            if self._not_before.get(d, 0.0) > now:
                self._pending.append(d)
                continue
            if self._inflight_of(entry.owner) >= self.quota.max_inflight:
                self._pending.append(d)  # tenant at in-flight cap: rotate
                continue
            return d
        return None

    def _dispatch_loop(self, slot: int) -> None:
        while True:
            with self._work:
                d = None
                while not self._stop.is_set():
                    d = self._next_dispatchable()
                    if d is not None:
                        break
                    self._work.wait(_POLL_S)
                if d is None:
                    return  # stopping
                entry = self._units[d]
                payload = self.cache.get(d)
                if payload is not None:
                    # dedup against work finished since this was queued
                    entry.state = "done"
                    entry.source = "cache"
                    self.wal.record_done(d, None, "cache")
                    metrics.counter("serve.done.cache").inc()
                    self._work.notify_all()
                    continue
                entry.attempts += 1
                entry.state = "leased"
                lease = self.leases.acquire(d, entry.attempts)
                self.wal.record_lease(d, lease.token, entry.attempts)
                metrics.counter("serve.leases").inc()
            self._run_lease(slot, d, entry, lease)

    # -- workers -----------------------------------------------------------
    def _worker(self, slot: int) -> tuple:
        """The slot's live ``(Process, Connection)``, forking one if needed.

        Forked on first need rather than at :meth:`start`: an idle daemon
        holds no workers, and a worker inherits the process as it is
        when its first lease arrives.
        """
        w = self._workers[slot]
        if w is not None and w[0].is_alive():
            return w
        self._retire(slot)
        ctx = multiprocessing.get_context()
        conn, child = ctx.Pipe()
        # daemonic: should stop() never run, interpreter exit still
        # terminates the worker instead of waiting on its idle loop
        p = ctx.Process(
            target=worker_loop, args=(child, self.cache_dir),
            name=f"serve-worker-{slot}", daemon=True,
        )
        try:
            p.start()
        except OSError:
            conn.close()
            raise
        finally:
            child.close()
        metrics.counter("serve.worker_spawns").inc()
        with self._lock:
            self._workers[slot] = (p, conn)
            closed = self._closed
        if closed:
            self._retire(slot, kill=True)
            raise OSError("daemon stopped")
        return p, conn

    def _retire(self, slot: int, kill: bool = False) -> None:
        """Reap the slot's worker (killing it first if asked)."""
        with self._lock:
            w, self._workers[slot] = self._workers[slot], None
        if w is None:
            return
        p, conn = w
        if kill:
            try:
                p.kill()
            except (OSError, AttributeError):
                pass
        p.join(5.0)
        conn.close()

    def _shutdown_workers(self, deadline: float) -> None:
        """Ask every worker to exit, reap it by ``deadline``, kill stragglers."""
        with self._lock:
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.jobs
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:
                pass  # already dead: joined below
        for p, conn in workers:
            p.join(max(0.1, deadline - time.monotonic()))
            if p.is_alive():
                p.kill()
                p.join()
            conn.close()

    def _run_lease(self, slot: int, d: str, entry: UnitEntry, lease) -> None:
        """Drive one lease on the slot's worker to a terminal outcome (lock not held)."""
        try:
            p, conn = self._worker(slot)
            conn.send(
                (entry.unit, d, entry.attempts, self.timeout, self.faults)
            )
        except OSError as e:
            self._retire(slot, kill=True)
            if not self._closed:
                self._finish_crash(d, entry, lease, f"worker unavailable: {e!r}")
            return
        lease.pid = p.pid
        with self._lock:
            self._procs[d] = p
        # backstop only: the worker enforces --timeout itself (SIGALRM);
        # this catches a worker wedged beyond even that
        hard_deadline = (
            time.monotonic() + self.timeout + 10.0
            if self.timeout else None
        )
        fenced = timed_out = False
        reply = None
        while True:
            if conn.poll(_POLL_S) or not p.is_alive():
                try:  # no reply when the worker died without one
                    reply = conn.recv() if conn.poll(0) else None
                except (EOFError, OSError):
                    pass
                break
            with self._lock:
                renewed = self.leases.renew(d, lease.token)
            if not renewed:
                fenced = True  # the reaper reclaimed us; stop the holder
                break
            if hard_deadline is not None and time.monotonic() > hard_deadline:
                timed_out = True
                break
        if fenced or timed_out or reply is None:
            # a fenced or wedged worker is killed; a dead one is reaped
            self._retire(slot, kill=True)
        with self._lock:
            self._procs.pop(d, None)
        if fenced or self._closed:
            return  # the reaper (or stop) already requeued + journaled
        if timed_out:
            self._finish_fail(
                d, entry, lease, FailureKind.TIMEOUT.value, injected=False,
            )
            return
        if reply is None:
            # death by signal: the lease protocol's home turf
            self._finish_crash(
                d, entry, lease, f"worker died (exitcode {p.exitcode})"
            )
            return
        code, err = reply
        if code == EXIT_OK:
            if self.cache.get(d) is not None:
                self.complete(d, lease.token, source="run")
            else:
                self._finish_fail(
                    d, entry, lease, FailureKind.ERROR.value, injected=False,
                )
        elif code == EXIT_TRANSIENT:
            self._finish_transient(d, entry, lease)
        else:  # EXIT_FAILED, with the worker's classified error
            self._finish_fail(
                d, entry, lease, err["kind"], injected=bool(err["injected"]),
            )

    # -- outcomes ----------------------------------------------------------
    def complete(self, d: str, token: Optional[int], source: str = "run") -> bool:
        """Apply a completion under ``token``; False when it is fenced.

        The fencing check and the state transition are one atomic step:
        a completion under a reclaimed (or reassigned) token journals a
        ``fenced`` record and changes nothing — the result bytes the
        stale holder wrote to the content-addressed cache are identical
        to the current holder's, so nothing needs undoing.
        """
        with self._work:
            if token is not None and not self.leases.release(d, token):
                self.wal.record_fenced(d, token)
                metrics.counter("serve.fenced").inc()
                log.warn(
                    "serve.fenced",
                    f"rejected late completion of {d[:8]} under stale "
                    f"token {token}",
                )
                return False
            entry = self._units.get(d)
            if entry is None or entry.state == "done":
                return False
            entry.state = "done"
            entry.source = source
            self.wal.record_done(d, token, source)
            metrics.counter(f"serve.done.{source}").inc()
            self._record_breaker(entry, success=True)
            self._work.notify_all()
        return True

    def _finish_transient(self, d: str, entry: UnitEntry, lease) -> None:
        with self._work:
            if not self.leases.release(d, lease.token):
                self.wal.record_fenced(d, lease.token)
                metrics.counter("serve.fenced").inc()
                return
            if entry.attempts <= self.retries:
                entry.state = "queued"
                self.wal.record_requeue(d, lease.token, "transient")
                # jittered exponential backoff, seeded from the digest:
                # concurrent tenants retrying the same transient spread
                # out instead of thundering-herding the dispatchers
                self._not_before[d] = time.monotonic() + retry_delay(
                    self.backoff, entry.attempts, d
                )
                self._pending.append(d)
                metrics.counter("serve.retries").inc()
            else:
                entry.state = "failed"
                entry.kind = FailureKind.TRANSIENT.value
                self.wal.record_fail(
                    d, lease.token, entry.kind, False, entry.attempts
                )
                metrics.counter("serve.failed").inc()
                self._record_breaker(entry, success=False)
            self._work.notify_all()

    def _finish_crash(self, d: str, entry: UnitEntry, lease, reason: str) -> None:
        # the worker died — but its result may already be durable
        # (e.g. a postkill chaos rule): durable means done, not lost
        if self.cache.get(d) is not None:
            self.complete(d, lease.token, source="run")
            return
        with self._work:
            if not self.leases.release(d, lease.token):
                self.wal.record_fenced(d, lease.token)
                metrics.counter("serve.fenced").inc()
                return
            if entry.attempts <= self.retries:
                entry.state = "queued"
                self.wal.record_requeue(d, lease.token, reason)
                self._not_before[d] = time.monotonic() + retry_delay(
                    self.backoff, entry.attempts, d
                )
                self._pending.append(d)
                metrics.counter("serve.reclaims").inc()
                log.warn(
                    "serve.reclaim",
                    f"lease {lease.token} on {entry.label} reclaimed "
                    f"({reason}); re-dispatching",
                )
            else:
                entry.state = "failed"
                entry.kind = FailureKind.CRASH.value
                injected = (
                    self.faults is not None
                    and self.faults.planned(entry.label, "kill") is not None
                )
                entry.injected = injected
                self.wal.record_fail(
                    d, lease.token, entry.kind, injected, entry.attempts
                )
                metrics.counter("serve.failed").inc()
                self._record_breaker(entry, success=False)
            self._work.notify_all()

    def _finish_fail(
        self, d: str, entry: UnitEntry, lease, kind: str, injected: bool
    ) -> None:
        with self._work:
            if not self.leases.release(d, lease.token):
                self.wal.record_fenced(d, lease.token)
                metrics.counter("serve.fenced").inc()
                return
            entry.state = "failed"
            entry.kind = kind
            entry.injected = injected
            self.wal.record_fail(d, lease.token, kind, injected, entry.attempts)
            metrics.counter("serve.failed").inc()
            if injected:
                metrics.counter("serve.failed.injected").inc()
            self._record_breaker(entry, success=False)
            log.warn(
                "serve.failed",
                f"unit {entry.label} failed terminally ({kind}"
                f"{', injected' if injected else ''})",
            )
            self._work.notify_all()

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
        self.reap_expired()
        self._heartbeat()

    def reap_expired(self) -> int:
        """Reclaim every lease whose holder stopped renewing (3x rule)."""
        with self._work:
            dead = self.leases.reclaim_expired()
            for lease in dead:
                entry = self._units.get(lease.digest)
                self.wal.record_requeue(
                    lease.digest, lease.token, "lease-expired"
                )
                metrics.counter("serve.reclaims").inc()
                if entry is not None and entry.state == "leased":
                    entry.state = "queued"
                    self._pending.append(lease.digest)
                log.warn(
                    "serve.reclaim",
                    f"lease {lease.token} expired (no renewal within "
                    f"{self.lease_ttl:g}s); token fenced, unit requeued",
                )
            if dead:
                self._work.notify_all()
            return len(dead)

    def _heartbeat(self) -> None:
        with self._lock:
            counts = self._counts_locked()
        self.wal.record_heartbeat(self.hb_interval, **counts)
        metrics.counter("serve.heartbeats").inc()
        try:
            metrics.write_snapshot_file(self.cache_dir, "serve")
        except OSError:
            pass  # a full disk must not kill the daemon it describes

    # -- introspection -----------------------------------------------------
    def _counts_locked(self) -> dict:
        counts = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        for u in self._units.values():
            counts[u.state] = counts.get(u.state, 0) + 1
        return counts

    def status(self) -> dict:
        """The ``/status`` document: queue, tenants, leases, breakers."""
        with self._lock:
            counts = self._counts_locked()
            tenants: dict = {}
            for u in self._units.values():
                for t in u.tenants:
                    row = tenants.setdefault(
                        t, {"queued": 0, "leased": 0, "done": 0, "failed": 0,
                            "rejected": 0},
                    )
                    row[u.state] += 1
            for t, n in self._rejects.items():
                tenants.setdefault(
                    t, {"queued": 0, "leased": 0, "done": 0, "failed": 0,
                        "rejected": 0},
                )["rejected"] = n
            for t, row in tenants.items():
                row["outstanding"] = row["queued"] + row["leased"]
                row["inflight"] = self._inflight_of(t)
            now = time.monotonic()
            leases = [
                {
                    "digest": lease.digest[:12],
                    "label": self._units[lease.digest].label,
                    "token": lease.token,
                    "attempt": lease.attempt,
                    "pid": lease.pid,
                    "age_s": round(now - lease.acquired, 3),
                    "ttl_remaining_s": round(lease.deadline - now, 3),
                }
                for lease in sorted(
                    self.leases.active(), key=lambda l: l.token
                )
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
                "lease_ttl_s": self.lease_ttl,
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
        with self._lock:
            counts = self._counts_locked()
        return {
            "ok": True,
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
            counts = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
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
                self._work.wait(min(remaining, _POLL_S))
