"""Deterministic, seeded fault injection for the sweep engine.

A :class:`FaultInjector` holds a list of :class:`FaultRule`\\ s, each of
which targets work units by an ``fnmatch`` pattern over the unit label
(``"MD/opencl@GTX480[small]"``) and fires with a configured
probability.  The roll is a pure function of ``(seed, rule, label)`` —
a SHA-256 hash, no RNG state — so the same plan injects the same faults
into the same units regardless of execution order, process fan-out, or
retry interleaving.  That determinism is what lets the chaos tests
assert *exactly* which units fail.

Fault kinds:

``raise``
    raise an :class:`InjectedFault` (terminal; the engine records a
    ``FailedUnit`` and quarantines the unit)
``transient``
    raise a :class:`~repro.errors.TransientError` on the first
    ``attempts`` attempts, then let the unit succeed — exercises the
    engine's bounded-retry/backoff path
``hang``
    sleep ``seconds`` before executing — exercises the ``--timeout``
    cutoff
``kill``
    die without reporting (``os._exit``) when running inside a pool
    worker; in the main process, raise a
    :class:`~repro.errors.WorkerCrash` instead so a sequential run is
    never taken down
``corrupt``
    not fired at execution time: the engine asks :meth:`corrupts` after
    storing a result and truncates the cache entry — exercises the
    cache's quarantine-on-load path
``interrupt``
    deliver SIGINT to the sweep driver process (the pool parent when
    firing inside a worker) on the first ``attempts`` attempts, then
    carry on executing the unit — exercises the graceful-shutdown
    drain, the ``interrupted`` journal state, and ``--resume`` replay,
    deterministically, from CI
``postkill``
    die without reporting *after* the unit's result is durably stored
    (``os._exit`` in a worker process) on the first ``attempts``
    attempts.  Fired by the dispatch core's workers (engine and daemon
    alike) via :meth:`FaultInjector.fire_post` between the cache put
    and the reply, it kills a worker *mid-unit* with the work already
    durable — exercising the dispatcher's finding of the durable
    result, which settles the lease as done (zero duplicated work)

Plans come from config or the ``REPRO_FAULTS`` environment variable
(inherited by pool workers), in either JSON form::

    {"seed": 7, "rules": [{"kind": "raise", "pattern": "MD/opencl*"}]}

or the compact form ``seed=7;raise:MD/opencl*;hang:*BFS*:0.5``, where
each rule is ``kind:pattern[:prob[:attempts[:seconds]]]``.
"""
from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import json
import os
import signal
import time
from typing import Optional, Sequence

from ..errors import TransientError, WorkerCrash
from ..telemetry import metrics
from ..telemetry import spans as tspans

__all__ = [
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "from_env",
    "from_spec",
    "corrupt_file",
    "mark_pool_worker",
    "in_pool_worker",
]

KINDS = ("raise", "transient", "hang", "kill", "corrupt", "interrupt", "postkill")

#: set in each forked worker by its worker loop, so ``kill`` faults
#: only ever take down a disposable process
_POOL_WORKER = False


def mark_pool_worker() -> None:
    global _POOL_WORKER
    _POOL_WORKER = True


def in_pool_worker() -> bool:
    return _POOL_WORKER


class InjectedFault(RuntimeError):
    """A planted terminal fault (``raise`` rules)."""

    injected = True


@dataclasses.dataclass(frozen=True)
class FaultRule:
    kind: str  # one of KINDS
    pattern: str  # fnmatch over WorkUnit.label()
    prob: float = 1.0
    attempts: int = 1  # transient: fail this many leading attempts
    seconds: float = 30.0  # hang: how long to stall

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")


@dataclasses.dataclass(frozen=True)
class FaultInjector:
    """A seeded, deterministic fault plan (picklable: crosses into workers)."""

    seed: int = 0
    rules: tuple = ()

    # -- deterministic matching -------------------------------------------
    def _rolls(self, rule: FaultRule, label: str) -> bool:
        # exact equality first: unit labels contain "[size]", which
        # fnmatch would otherwise read as a character class
        if label != rule.pattern and not fnmatch.fnmatchcase(label, rule.pattern):
            return False
        if rule.prob >= 1.0:
            return True
        blob = f"{self.seed}:{rule.kind}:{rule.pattern}:{label}".encode()
        roll = int(hashlib.sha256(blob).hexdigest()[:8], 16) / float(1 << 32)
        return roll < rule.prob

    def planned(self, label: str, kind: Optional[str] = None):
        """The first rule that fires for ``label`` (optionally of ``kind``)."""
        for rule in self.rules:
            if kind is not None and rule.kind != kind:
                continue
            if self._rolls(rule, label):
                return rule
        return None

    def corrupts(self, label: str) -> bool:
        """Should the cache entry this unit just stored be corrupted?"""
        return self.planned(label, "corrupt") is not None

    # -- execution-time injection -----------------------------------------
    def fire(self, label: str, attempt: int = 1) -> None:
        """Inject any execution-time fault planned for this unit/attempt.

        Called at the execution boundary (before the simulation runs),
        both in pool workers and on the sequential path.
        """
        for rule in self.rules:
            if rule.kind in ("corrupt", "postkill") or not self._rolls(rule, label):
                continue
            self._note(rule, label, attempt)
            if rule.kind == "raise":
                raise InjectedFault(f"injected fault for {label}")
            if rule.kind == "transient":
                if attempt <= rule.attempts:
                    e = TransientError(
                        f"injected transient fault for {label} "
                        f"(attempt {attempt}/{rule.attempts})"
                    )
                    e.injected = True
                    raise e
            elif rule.kind == "hang":
                time.sleep(rule.seconds)
            elif rule.kind == "kill":
                if in_pool_worker():
                    os._exit(13)  # die without cleanup: a real worker crash
                e = WorkerCrash(f"injected worker kill for {label}")
                e.injected = True
                raise e
            elif rule.kind == "interrupt":
                if attempt <= rule.attempts:
                    # signal the *driver*: workers ignore SIGINT so the
                    # drain protocol (stop admission, bounded grace)
                    # plays out exactly as a terminal Ctrl-C would
                    target = os.getppid() if in_pool_worker() else os.getpid()
                    try:
                        os.kill(target, signal.SIGINT)
                    except OSError:
                        pass

    def fire_post(self, label: str, attempt: int = 1) -> None:
        """Inject any post-execution fault planned for this unit/attempt.

        Called by the dispatch core's workers *after* the result is
        durably in the cache but *before* the reply: a ``postkill``
        rule dies right here (``os._exit`` in a worker,
        :class:`~repro.errors.WorkerCrash` in-process so tests survive),
        leaving a dead worker over an already-durable result.
        """
        for rule in self.rules:
            if rule.kind != "postkill" or not self._rolls(rule, label):
                continue
            if attempt > rule.attempts:
                continue
            self._note(rule, label, attempt)
            if in_pool_worker():
                os._exit(17)  # die mid-lease: the work is durable, the report is lost
            e = WorkerCrash(f"injected post-completion kill for {label}")
            e.injected = True
            raise e

    def _note(self, rule: FaultRule, label: str, attempt: int) -> None:
        """Record the firing on whatever telemetry is active here.

        A ``transient`` rule only counts while it still fails the
        attempt; a ``kill`` in a pool worker is about to ``os._exit``,
        but the instant event still reaches the parent when the worker
        dies *after* exporting (and the planned-fault accounting in the
        engine covers the rest).
        """
        if rule.kind in ("transient", "interrupt", "postkill") and attempt > rule.attempts:
            return
        metrics.counter(f"faults.injected.{rule.kind}").inc()
        tspans.event(
            "fault.injected", "fault",
            kind=rule.kind, label=label, pattern=rule.pattern,
            attempt=attempt,
        )


def from_spec(spec) -> Optional[FaultInjector]:
    """Build an injector from a JSON/compact string, dict, or None."""
    if spec is None or isinstance(spec, FaultInjector):
        return spec
    if isinstance(spec, str):
        spec = spec.strip()
        if not spec:
            return None
        if spec.startswith("{"):
            spec = json.loads(spec)
        else:
            return _from_compact(spec)
    rules = tuple(FaultRule(**r) for r in spec.get("rules", ()))
    return FaultInjector(seed=int(spec.get("seed", 0)), rules=rules)


def _from_compact(text: str) -> FaultInjector:
    seed = 0
    rules = []
    for field in filter(None, (p.strip() for p in text.split(";"))):
        if field.startswith("seed="):
            seed = int(field[5:])
            continue
        parts = field.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"bad fault rule {field!r}; want kind:pattern[:prob[:attempts[:seconds]]]"
            )
        kw: dict = {"kind": parts[0], "pattern": parts[1]}
        if len(parts) > 2 and parts[2]:
            kw["prob"] = float(parts[2])
        if len(parts) > 3 and parts[3]:
            kw["attempts"] = int(parts[3])
        if len(parts) > 4 and parts[4]:
            kw["seconds"] = float(parts[4])
        rules.append(FaultRule(**kw))
    return FaultInjector(seed=seed, rules=tuple(rules))


def from_env() -> Optional[FaultInjector]:
    """The ambient fault plan: ``$REPRO_FAULTS``, or None when unset."""
    return from_spec(os.environ.get("REPRO_FAULTS"))


def corrupt_file(path) -> None:
    """Truncate a cache entry mid-payload (simulates a torn write)."""
    try:
        with open(path, "r+b") as f:
            f.seek(0, os.SEEK_END)
            size = f.tell()
            f.truncate(max(1, size // 2))
    except OSError:
        pass
