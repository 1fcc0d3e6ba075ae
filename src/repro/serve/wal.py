"""The durable queue WAL: the daemon's single source of truth.

The sweep daemon journals every queue transition to one
:class:`repro.durable.Log` under the workdir
(``<cache>/serve/queue.jsonl``), like the per-run sweep journal
(:mod:`repro.exec.journal`): one compact JSON object per line, flushed
and fsynced before the operation it describes is acknowledged.  A
``kill -9`` of the daemon therefore loses nothing — the WAL replays
into exactly the queue the daemon died with, and every lease that was
open at death is requeued (its holder, a dispatcher thread, died with
the daemon; lease tokens never repeat across boots).

Record types (``"t"``):

``boot``
    one per daemon start: schema, boot epoch, pid, jobs.
``submit``
    one per (ticket, unit): tenant, ticket id, digest, label, and the
    full unit dict (so replay can re-dispatch without re-deriving
    anything).
``reject``
    an admission rejection (quota / backpressure / breaker / drain),
    with the tenant and reason — the audit trail for 429s.
``lease``
    unit handed to a dispatcher thread under ``token`` (a counter that
    replay raises past every token the WAL has seen).
``done`` / ``fail``
    terminal unit outcomes (``done`` only after the result is durably
    in the content-addressed cache — same ordering contract as the
    sweep journal).
``requeue``
    a lease ended without a terminal outcome (a transient failure or
    dead worker to retry, a drain past its grace, a restart after the
    daemon died); the unit goes back to the queue.
``fenced``
    written only by older daemons, which expired leases on missed
    heartbeats and refused late completions; replay keeps it as audit.
``breaker``
    a per-device circuit breaker changed state.
``hb``
    daemon liveness beat (pid, interval, progress counters) — the
    3x-interval staleness rule :mod:`repro.obs` applies to sweep
    journals applies here identically.
``drain`` / ``state``
    drain requested; terminal state of one daemon boot
    (``stopped`` clean, ``interrupted`` with work left).
"""
from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Optional

from .. import durable

__all__ = [
    "QueueWAL",
    "QueueReplay",
    "UnitEntry",
    "TicketEntry",
    "serve_dir",
    "wal_path",
    "replay",
    "WAL_SCHEMA",
]

WAL_SCHEMA = 1

#: unit states the replay (and the live daemon) distinguish
UNIT_STATES = ("queued", "leased", "done", "failed")


def serve_dir(cache_dir) -> Path:
    """Where a sweep workdir keeps its daemon state."""
    return Path(cache_dir) / "serve"


def wal_path(cache_dir) -> Path:
    """The durable queue WAL for a sweep workdir (one per workdir)."""
    return serve_dir(cache_dir) / "queue.jsonl"


class QueueWAL:
    """The daemon queue's record schema over a durable log."""

    def __init__(self, path):
        self._log = durable.Log(
            path, "serve.wal.appends", "serve.wal.append_s"
        )
        self.path = self._log.path

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        self._log.append(record)

    # -- record helpers ----------------------------------------------------
    def record_boot(self, epoch: int, jobs: int) -> None:
        self.append(
            {"t": "boot", "schema": WAL_SCHEMA, "epoch": epoch,
             "pid": os.getpid(), "jobs": jobs, "unix": time.time()}
        )

    def record_submit(
        self, ticket: str, tenant: str, digest: str, label: str, unit: dict
    ) -> None:
        self.append(
            {"t": "submit", "ticket": ticket, "tenant": tenant, "d": digest,
             "label": label, "unit": unit, "unix": time.time()}
        )

    def record_reject(self, tenant: str, reason: str, count: int) -> None:
        self.append(
            {"t": "reject", "tenant": tenant, "reason": reason,
             "count": count, "unix": time.time()}
        )

    def record_lease(self, digest: str, token: int, attempt: int) -> None:
        self.append(
            {"t": "lease", "d": digest, "token": token, "attempt": attempt,
             "unix": time.time()}
        )

    def record_done(self, digest: str, token: Optional[int], source: str) -> None:
        self.append(
            {"t": "done", "d": digest, "token": token, "source": source,
             "unix": time.time()}
        )

    def record_fail(
        self, digest: str, token: Optional[int], kind: str,
        injected: bool, attempts: int,
    ) -> None:
        self.append(
            {"t": "fail", "d": digest, "token": token, "kind": kind,
             "injected": injected, "attempts": attempts, "unix": time.time()}
        )

    def record_requeue(self, digest: str, token: int, reason: str) -> None:
        self.append(
            {"t": "requeue", "d": digest, "token": token, "reason": reason,
             "unix": time.time()}
        )

    def record_breaker(self, device: str, state: str) -> None:
        self.append(
            {"t": "breaker", "device": device, "state": state, "unix": time.time()}
        )

    def record_heartbeat(self, interval: float, **progress) -> None:
        self.append(
            {"t": "hb", "pid": os.getpid(), "interval": float(interval),
             "unix": time.time(), **progress}
        )

    def record_drain(self) -> None:
        self.append({"t": "drain", "unix": time.time()})

    def record_state(self, state: str) -> None:
        self.append({"t": "state", "state": state, "unix": time.time()})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "QueueWAL":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- replay ---------------------------------------------------------------
@dataclasses.dataclass
class UnitEntry:
    """One deduplicated work unit the queue knows about."""

    digest: str
    label: str
    unit: dict
    #: tenant that first submitted the unit — leases are charged here
    owner: str
    state: str = "queued"
    attempts: int = 0
    #: every tenant that submitted this unit (dedup fan-in)
    tenants: set = dataclasses.field(default_factory=set)
    #: every ticket that references this unit
    tickets: set = dataclasses.field(default_factory=set)
    #: how the terminal ``done`` was served: "run" | "cache"
    source: str = ""
    kind: str = ""
    injected: bool = False


@dataclasses.dataclass
class TicketEntry:
    """One submission: a tenant's ordered list of unit digests."""

    ticket: str
    tenant: str
    digests: list = dataclasses.field(default_factory=list)
    submitted_unix: float = 0.0


@dataclasses.dataclass
class QueueReplay:
    """What the WAL says the queue looked like at the last append."""

    path: Optional[Path] = None
    epoch: int = 0
    #: token floor: the next lease token must be strictly greater
    #: than every token the WAL has ever mentioned
    next_token: int = 1
    units: dict = dataclasses.field(default_factory=dict)  # digest -> UnitEntry
    tickets: dict = dataclasses.field(default_factory=dict)  # id -> TicketEntry
    #: leases open at the moment the WAL ends (digest -> token); on a
    #: daemon restart these are exactly the requeue set
    open_leases: dict = dataclasses.field(default_factory=dict)
    #: terminal state of the *last* boot ("running" = killed outright)
    state: str = "running"
    torn_lines: int = 0
    records: int = 0
    last_heartbeat: Optional[dict] = None
    last_unix: Optional[float] = None

    def queued_digests(self) -> list:
        """Dispatchable digests, submission order (leased = reclaimable)."""
        return [
            d for d, u in self.units.items() if u.state in ("queued", "leased")
        ]

    def summary(self) -> dict:
        by_state: dict = {}
        for u in self.units.values():
            by_state[u.state] = by_state.get(u.state, 0) + 1
        return {
            "epoch": self.epoch,
            "state": self.state,
            "units": len(self.units),
            "tickets": len(self.tickets),
            "open_leases": len(self.open_leases),
            "by_state": dict(sorted(by_state.items())),
            "torn_lines": self.torn_lines,
        }


def replay(path) -> QueueReplay:
    """Replay one queue WAL; torn trailing lines are skipped, not fatal."""
    path = Path(path)
    rep = QueueReplay(path=path)
    try:
        records, rep.torn_lines = durable.replay(path)
    except OSError:
        return rep
    rep.records = len(records)
    for rec in records:
        u = rec.get("unix")
        if isinstance(u, (int, float)):
            rep.last_unix = u if rep.last_unix is None else max(rep.last_unix, u)
        _apply(rep, rec)
    return rep


def _apply(rep: QueueReplay, rec: dict) -> None:
    t = rec.get("t")
    if t == "boot":
        rep.epoch = max(rep.epoch, int(rec.get("epoch", 0)))
        rep.state = "running"  # a new boot supersedes the old terminal state
    elif t == "submit":
        d = rec["d"]
        entry = rep.units.get(d)
        if entry is None:
            entry = rep.units[d] = UnitEntry(
                digest=d, label=rec.get("label", ""),
                unit=rec.get("unit") or {}, owner=rec.get("tenant", ""),
            )
        entry.tenants.add(rec.get("tenant", ""))
        entry.tickets.add(rec["ticket"])
        tk = rep.tickets.get(rec["ticket"])
        if tk is None:
            tk = rep.tickets[rec["ticket"]] = TicketEntry(
                ticket=rec["ticket"], tenant=rec.get("tenant", ""),
                submitted_unix=rec.get("unix") or 0.0,
            )
        tk.digests.append(d)
    elif t == "lease":
        d, token = rec["d"], int(rec["token"])
        rep.next_token = max(rep.next_token, token + 1)
        entry = rep.units.get(d)
        if entry is not None:
            entry.state = "leased"
            entry.attempts = max(entry.attempts, int(rec.get("attempt", 1)))
        rep.open_leases[d] = token
    elif t == "done":
        d = rec["d"]
        entry = rep.units.get(d)
        if entry is not None:
            entry.state = "done"
            entry.source = rec.get("source", "run")
        rep.open_leases.pop(d, None)
    elif t == "fail":
        d = rec["d"]
        entry = rep.units.get(d)
        if entry is not None:
            entry.state = "failed"
            entry.kind = rec.get("kind", "ERROR")
            entry.injected = bool(rec.get("injected"))
            entry.attempts = max(entry.attempts, int(rec.get("attempts", 1)))
        rep.open_leases.pop(d, None)
    elif t == "requeue":
        d = rec["d"]
        entry = rep.units.get(d)
        if entry is not None and entry.state == "leased":
            entry.state = "queued"
        rep.open_leases.pop(d, None)
    elif t == "hb":
        rep.last_heartbeat = rec
    elif t == "state":
        rep.state = rec.get("state", rep.state)
    # "reject", "fenced" (older daemons only) and "breaker" records are
    # audit trail only: they never change queue membership
