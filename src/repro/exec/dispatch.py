"""The one dispatch core: warm forked workers, one unit queue.

Both front ends run their cold units here — the sweep engine's queue
(:class:`~repro.exec.engine.SweepExecutor`) and the daemon's leases
(:class:`~repro.serve.daemon.SweepDaemon`).  The core is three parts:

* :class:`UnitQueue` — order, attempts, backoff and what is running,
  each attempt settled by :func:`decide`, the one outcome policy;
* :func:`worker_loop` — a long-lived forked worker serving one unit
  message at a time over a duplex ``multiprocessing.Pipe``;
* :class:`Dispatcher` — ``jobs`` threads, each owning one lazily
  forked worker, each polling it for the reply under a hard deadline.

A worker runs :func:`run_attempt` (the engine's calling thread does
too) one unit at a time, so a worker that dies names its own unit:
nothing needs probing, and the thread forks a replacement when it next
needs one.  A unit message is ``(unit_dict, digest, attempt, timeout,
faults_spec, span_ctx)``; ``None`` (or EOF) tells the worker to exit.
The reply is ``(code, reply)`` in the same 0/1/75 classes as the sweep
CLIs' exit codes (:mod:`repro.exec.lifecycle`):

* ``0``  — ``{"ok": payload}``; with a cache the result is durably in
  it (atomic fsynced put *before* replying, so a front end's ``done``
  record never outruns the data it vouches for);
* ``75`` — ``EX_TEMPFAIL``: a transient failure, ``{"err": ...}``;
* ``1``  — a terminal failure; ``err`` carries the classified
  kind/type/message/traceback/injected dict;
* no reply (EOF, or the process is gone) — the dispatcher reports
  :data:`CRASHED` unless the unit's result is already in the cache.

Every reply also carries its attempt's telemetry: its own registry's
metrics snapshot and, from a worker, the finished spans parented under
``span_ctx``.  :func:`absorb_telemetry` folds it into the run for the
dispatcher and the engine's calling thread alike.  Fault injection
crosses this boundary as it does the in-process path, plus
``postkill``: the worker fires it *after* the cache put, dying mid-unit
with the work already durable.
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Callable, Optional

from .. import faults as faults_mod
from ..errors import FailureKind, UnitTimeout, classify, is_injected
from ..telemetry import log, metrics
from ..telemetry import spans as tspans
from .cache import ResultCache, result_to_json
from .unit import execute, unit_from_dict

__all__ = [
    "Dispatcher", "Job", "UnitQueue", "absorb_telemetry", "decide", "deadline",
    "failure", "retry_delay", "run_attempt", "spawn_worker", "worker_loop",
]

#: reply codes (the 0/1/75 exit-code contract) ...
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_TRANSIENT = 75
#: ... and the dispatcher's own: the worker died without replying, or
#: no worker could be forked at all
CRASHED = -1
UNAVAILABLE = -2

#: how long a dispatcher waits between worker polls (each poll also asks
#: ``keep``, so an abandoned job's worker is killed within this period)
POLL_S = 0.2
#: how often an idle worker checks that the process that forked it lives
_ORPHAN_CHECK_S = 1.0
#: a worker with no next unit after this long trims its heap
_IDLE_S = 0.1
#: past ``timeout`` + this, a worker wedged beyond its own alarm is killed
_BACKSTOP_S = 10.0


def retry_delay(backoff: float, attempt: int, digest: str = "") -> float:
    """Exponential backoff with deterministic, digest-seeded jitter.

    Concurrent tenants retrying the same transient at the same moment
    would otherwise thundering-herd the workers: every retried unit
    sleeps ``backoff * 2**(attempt-1)`` and they all wake together.
    The jitter spreads wakeups over ``[0.5, 1.5)`` of the exponential
    term, seeded from ``(digest, attempt)`` via SHA-256 — a pure
    function, so the same unit always sleeps the same amount and chaos
    tests stay exactly reproducible (no RNG state anywhere).
    """
    base = max(0.0, float(backoff)) * (2 ** max(0, attempt - 1))
    if not digest:
        return base
    blob = f"retry:{digest}:{attempt}".encode()
    frac = int(hashlib.sha256(blob).hexdigest()[:8], 16) / float(1 << 32)
    return base * (0.5 + frac)


@contextlib.contextmanager
def deadline(seconds: Optional[float]):
    """Raise :class:`UnitTimeout` if the body runs longer than ``seconds``.

    SIGALRM-based, so it cuts off even a unit stuck in a pure-Python
    loop; silently unenforced off the main thread or on platforms
    without ``setitimer`` (workers execute on their own main threads).
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


def _planned(faults, label: str, *kinds: str) -> bool:
    return faults is not None and any(
        faults.planned(label, k) is not None for k in kinds
    )


def failure(e: BaseException, label: str, faults) -> tuple:
    """``(code, err)`` for one attempt that raised ``e``.

    A timeout counts as injected when the plan has a ``hang`` for the
    unit: the alarm fires outside the injector, so the UnitTimeout
    itself carries no ``injected`` flag.
    """
    kind = classify(e)
    err = {
        "kind": kind.value,
        "type": type(e).__name__,
        "message": str(e),
        "traceback": traceback.format_exc(),
        "injected": is_injected(e) or (
            isinstance(e, UnitTimeout) and _planned(faults, label, "hang")
        ),
    }
    return (EXIT_TRANSIENT if kind is FailureKind.TRANSIENT else EXIT_FAILED), err


def decide(code: int, attempt: int, retries: int) -> str:
    """The outcome policy: ``"done"``, ``"retry"`` or ``"fail"``.

    A transient failure or a dead worker is retried while ``attempt``
    is within ``retries``; anything else that did not succeed is final.
    """
    if code == EXIT_OK:
        return "done"
    if code in (EXIT_TRANSIENT, CRASHED, UNAVAILABLE) and attempt <= retries:
        return "retry"
    return "fail"


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


def run_attempt(
    unit, digest: str, attempt: int, faults, timeout: Optional[float],
    cache: Optional[ResultCache],
) -> tuple:
    """One traced, deadline-bounded execution: its ``(code, reply)``.

    Success puts the payload durably in ``cache`` first: the fsynced
    atomic put is what lets a ``done`` record (or a redispatch) trust it.
    The attempt's metrics go to a registry of its own, returned in
    ``reply["telemetry"]`` wherever it runs.
    """
    with metrics.use_registry() as reg:
        try:
            with tspans.span(
                "unit.attempt", "unit", label=unit.label(), attempt=attempt
            ) as anchor:
                with deadline(timeout):
                    payload = result_to_json(
                        execute(unit, attempt=attempt, faults=faults)
                    )
                _virtual_launch_spans(payload, anchor)
            if cache is not None:
                cache.put(digest, payload)
            code, reply = EXIT_OK, {"ok": payload}
        except Exception as e:
            code, err = failure(e, unit.label(), faults)
            reply = {"err": err}
        reply["telemetry"] = {"metrics": reg.snapshot()}
    return code, reply


def absorb_telemetry(reply: dict) -> None:
    """Fold an attempt's telemetry, popped off ``reply``, into the run.

    Only a worker's reply carries spans: the calling thread's went
    straight to the live tracer.
    """
    tele = reply.pop("telemetry")
    tr = tspans.tracer()
    if tr is not None and tele.get("spans"):
        tr.absorb(tele["spans"])
    metrics.registry().merge_snapshot(tele["metrics"])


# -- the worker ------------------------------------------------------------
def _serve(
    cache: Optional[ResultCache],
    unit_dict: dict,
    digest: str,
    attempt: int,
    timeout: Optional[float] = None,
    faults_spec=None,
    span_ctx=None,
) -> tuple:
    """Execute, store, (maybe) die: the ``(code, reply)`` of one unit."""
    unit = unit_from_dict(unit_dict)
    injector = faults_mod.from_spec(faults_spec)
    tr = tspans.worker_tracer(span_ctx)
    with tspans.use_tracer(tr):
        code, reply = run_attempt(unit, digest, attempt, injector, timeout, cache)
    if tr is not None:
        tr.finish()
        reply["telemetry"]["spans"] = tr.export_events()
    if code == EXIT_OK and injector is not None:
        injector.fire_post(unit.label(), attempt)
    return code, reply


def worker_loop(conn, cache_dir: Optional[str]) -> None:
    """Process entry point: serve unit messages from ``conn`` until told to stop."""
    faults_mod.mark_pool_worker()
    # SIGINT drains the parent, not its workers; SIGTERM must not run the
    # parent's inherited drain handler, so an orphan still dies of it
    for sig, action in ((signal.SIGINT, signal.SIG_IGN),
                        (signal.SIGTERM, signal.SIG_DFL)):
        try:
            signal.signal(sig, action)
        except (ValueError, OSError):
            pass
    parent_pid = os.getppid()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    # what the parent had built is never garbage here: each unit's
    # collection below then walks only objects the worker made itself
    gc.freeze()
    # glibc's malloc_trim returns freed heap pages to the OS
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    while True:
        try:
            # hand freed heap back to the OS only when going idle: between
            # back-to-back units the next one reuses it, and trimming would
            # just fault it all back in
            if not conn.poll(_IDLE_S) and malloc_trim is not None:
                malloc_trim(0)
            # sibling workers inherit each other's pipe ends, so EOF alone
            # cannot tell an orphan that its parent died: watch the pid too
            while not conn.poll(_ORPHAN_CHECK_S):
                if os.getppid() != parent_pid:
                    return
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            conn.send(_serve(cache, *msg))
        except OSError:
            return  # the parent is gone; a result it vouched for is durable
        # a unit's cyclic garbage would otherwise stack under the next
        # unit's peak: a long-lived worker's peak RSS is what it retains
        # plus the largest unit's working set
        gc.collect()


def spawn_worker(cache_dir: Optional[str], name: str) -> tuple:
    """Fork one warm worker: its ``(Process, Connection)``."""
    ctx = multiprocessing.get_context()
    conn, child = ctx.Pipe()
    # daemonic: should the front end never shut it down, interpreter
    # exit still terminates the worker instead of waiting on its loop
    p = ctx.Process(
        target=worker_loop, args=(child, cache_dir), name=name, daemon=True,
    )
    try:
        p.start()
    except OSError:
        conn.close()
        raise
    finally:
        child.close()
    return p, conn


# -- the dispatcher --------------------------------------------------------
@dataclasses.dataclass
class Job:
    """One unit handed to a dispatcher thread (or queued for one)."""

    digest: str
    unit: dict  # the unit's JSON form
    label: str
    #: the attempt it runs as; while queued, the attempts it has spent
    attempt: int
    #: the front end's number for it (the daemon's lease token)
    token: Optional[int] = None
    #: pid of the worker running it, once sent
    pid: Optional[int] = None
    #: monotonic time it was taken
    taken: float = dataclasses.field(default_factory=time.monotonic)
    #: queue clock time before which a retry must not be taken
    due: float = 0.0


class UnitQueue:
    """The cold units of one front end: FIFO order, attempts, backoff.

    A digest is queued or in :attr:`running`, never both: no unit is
    dispatched twice at once.  ``cond`` (a front end may lend its own)
    guards it all, and ``clock`` reads the deadlines (a test seam).
    """

    def __init__(
        self,
        retries: int,
        backoff: float,
        name: str = "exec",
        cond: Optional[threading.Condition] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retries, self.backoff = max(0, int(retries)), max(0.0, float(backoff))
        self.name = name
        self.cond = cond if cond is not None else threading.Condition()
        self.clock = clock
        self._queued: collections.deque = collections.deque()  # of Jobs
        #: digest -> the Job taken for it and not yet settled
        self.running: dict = {}

    def __len__(self) -> int:
        """How many units are queued or running: not yet settled."""
        return len(self._queued) + len(self.running)

    def push(self, digest: str, unit: dict, label: str, attempts: int = 0) -> None:
        """Queue a unit that has already spent ``attempts`` attempts."""
        with self.cond:
            self._queued.append(Job(digest, unit, label, attempts))
            self.cond.notify_all()

    def take(self, stop: Callable[[], bool], eligible=lambda digest: True):
        """Wait for the first queued Job due and ``eligible``; None on ``stop()``."""
        with self.cond:
            while not stop():
                now = self.clock()
                for i, job in enumerate(self._queued):
                    if job.due <= now and eligible(job.digest):
                        del self._queued[i]
                        job.attempt += 1
                        job.taken, job.pid = time.monotonic(), None
                        self.running[job.digest] = job
                        return job
                # a deadline already past waits on eligibility, which
                # only a settle (it notifies) or the poll can change
                wake = min(
                    (j.due for j in self._queued if j.due > now),
                    default=now + POLL_S,
                )
                self.cond.wait(min(POLL_S, wake - now))
            return None

    def settle(self, job: Job, code: int, reply: dict) -> str:
        """End ``job`` with :func:`decide`'s verdict; queue a retry behind its delay."""
        verdict = decide(code, job.attempt, self.retries)
        with self.cond:
            del self.running[job.digest]
            if verdict == "retry":
                delay = retry_delay(self.backoff, job.attempt, job.digest)
                metrics.counter(f"{self.name}.retries").inc()
                tspans.event(
                    "retry.backoff", "unit", label=job.label,
                    attempt=job.attempt, sleep_s=delay,
                )
                log.info(
                    "unit.retry", label=job.label, attempt=job.attempt,
                    sleep_s=round(delay, 4), error=reply["err"]["message"],
                )
                job.due = self.clock() + delay
                self._queued.append(job)
            self.cond.notify_all()
        return verdict

    def put_back(self, job: Job) -> None:
        """Requeue ``job``, which never ran: first in line, same attempt."""
        with self.cond:
            del self.running[job.digest]
            job.attempt -= 1
            self._queued.appendleft(job)
            self.cond.notify_all()


class Dispatcher:
    """``jobs`` threads, each driving one lazily forked warm worker.

    The front end supplies three callbacks, all called on dispatcher
    threads: ``take(slot)`` blocks for the thread's next :class:`Job` and
    returns None to end the thread; ``keep(job)``, asked between polls,
    returns False to abandon the job (its worker is killed, nothing is
    settled); ``settle(job, code, reply)`` applies the outcome.
    Workers are forked on first need, never at :meth:`start`, and
    reaped only by :meth:`shutdown` (or when one dies or is abandoned).
    An exception in a callback lands in :attr:`error` and ends every
    thread at its next job; ``take`` should stop waiting once it is set.
    """

    def __init__(
        self,
        jobs: int,
        cache: Optional[ResultCache],
        take: Callable,
        settle: Callable,
        keep: Callable = lambda job: True,
        timeout: Optional[float] = None,
        faults=None,
        span_ctx=None,
        name: str = "exec",
    ) -> None:
        self.jobs = max(1, int(jobs))
        #: where workers put results, and where a dead one's is looked for
        self.cache = cache
        self.take, self.settle, self.keep = take, settle, keep
        self.timeout = timeout
        self.faults = faults
        self.span_ctx = span_ctx
        self.name = name
        self._lock = threading.Lock()
        self._workers: list = [None] * self.jobs  # slot -> (Process, Connection)
        self._closed = False  # set by shutdown(): no new worker
        self._threads: list = []
        #: the first exception a callback raised; it ends every thread
        self.error: Optional[Exception] = None

    def start(self) -> "Dispatcher":
        for i in range(self.jobs):
            t = threading.Thread(
                target=self._loop, args=(i,),
                name=f"{self.name}-dispatch-{i}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        return self

    def join(self, until: Optional[float] = None) -> None:
        """Wait for every thread to end (or ``until``, a monotonic time)."""
        for t in self._threads:
            while t.is_alive() and (until is None or time.monotonic() < until):
                t.join(POLL_S)

    def _loop(self, slot: int) -> None:
        try:
            while self.error is None:
                job = self.take(slot)
                if job is None:
                    return
                outcome = self._drive(slot, job)
                if outcome is not None:
                    self.settle(job, *outcome)
        except Exception as e:
            self.error = e  # the front end re-raises it on its own thread
            log.warn(
                "dispatch.error", f"{self.name} dispatcher {slot} stopped: {e!r}",
                traceback=traceback.format_exc(),
            )

    # -- workers -----------------------------------------------------------
    def _worker(self, slot: int) -> tuple:
        """The slot's live ``(Process, Connection)``, forking one if needed."""
        w = self._workers[slot]
        if w is not None and w[0].is_alive():
            return w
        self._retire(slot)
        w = spawn_worker(
            None if self.cache is None else str(self.cache.root),
            f"{self.name}-worker-{slot}",
        )
        metrics.counter(f"{self.name}.worker_spawns").inc()
        with self._lock:
            self._workers[slot] = w
            closed = self._closed
        if closed:
            self._retire(slot, kill=True)
            raise OSError("dispatcher shut down")
        return w

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

    def shutdown(self, until: float) -> None:
        """Ask every worker to exit, reap it by ``until``, kill stragglers."""
        with self._lock:
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.jobs
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:
                pass  # already dead: joined below
        for p, conn in workers:
            p.join(max(0.1, until - time.monotonic()))
            if p.is_alive():
                p.kill()
                p.join()
            conn.close()

    # -- one job -----------------------------------------------------------
    def _lost(self, job: Job, kind: FailureKind, message: str, *rules) -> dict:
        """The reply standing in for a worker that never sent one."""
        return {"err": {
            "kind": kind.value, "type": "", "message": message,
            "traceback": "", "injected": _planned(self.faults, job.label, *rules),
        }}

    def _drive(self, slot: int, job: Job):
        """Run ``job`` on the slot's worker: ``(code, reply)``, or None if abandoned."""
        try:
            p, conn = self._worker(slot)
            conn.send((
                job.unit, job.digest, job.attempt, self.timeout, self.faults,
                self.span_ctx,
            ))
        except OSError as e:
            self._retire(slot, kill=True)
            return UNAVAILABLE, self._lost(
                job, FailureKind.CRASH, f"worker unavailable: {e!r}",
            )
        job.pid = p.pid
        backstop = (
            time.monotonic() + self.timeout + _BACKSTOP_S if self.timeout else None
        )
        while True:
            if conn.poll(POLL_S) or not p.is_alive():
                try:  # no reply when the worker died without one
                    code, reply = conn.recv() if conn.poll(0) else (None, None)
                except (EOFError, OSError):
                    code = reply = None
                break
            if not self.keep(job):
                self._retire(slot, kill=True)
                return None
            if backstop is not None and time.monotonic() > backstop:
                self._retire(slot, kill=True)
                return EXIT_FAILED, self._lost(
                    job, FailureKind.TIMEOUT,
                    f"worker wedged past --timeout={self.timeout:g}s", "hang",
                )
        if reply is None:
            self._retire(slot, kill=True)
            # it may have died after its durable put (a postkill rule):
            # durable means done, not lost
            payload = self.cache.get(job.digest) if self.cache is not None else None
            if payload is not None:
                return EXIT_OK, {"ok": payload}
            return CRASHED, self._lost(
                job, FailureKind.CRASH, f"worker died (exitcode {p.exitcode})",
                "kill", "postkill",
            )
        absorb_telemetry(reply)
        return code, reply
