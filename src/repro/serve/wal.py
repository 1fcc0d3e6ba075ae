"""The durable queue WAL: the daemon's single source of truth.

The sweep daemon journals every queue transition to one durable log
under the workdir (``<cache>/serve/queue.jsonl``), flushed and fsynced
before the operation it describes is acknowledged.  Its unit records
are the sweep journal's (:class:`~repro.exec.journal.UnitLog`, folded
by :func:`~repro.exec.journal.fold`; the record table is in DESIGN.md,
"Durable files"), with the lease token every daemon lease carries.
What is the daemon's alone is applied on top of that fold: ``boot``
(epoch, pid, jobs), ``submit`` (ticket, tenant and unit dict, so replay
can re-dispatch without re-deriving anything), and the audit records
``reject``, ``breaker``, ``drain`` and the ``fenced`` records older
daemons wrote, none of which changes queue membership.

A :class:`QueueWAL` folds each record it appends into its live
:attr:`QueueWAL.replay`, which is the daemon's queue state; a ``kill
-9`` therefore loses nothing -- the WAL replays into exactly the queue
the daemon died with, and every lease that was open at death is
requeued by the next boot (its holder, a dispatcher thread, died with
the daemon; lease tokens never repeat across boots).
"""
from __future__ import annotations

import dataclasses
import os
import threading
import time
from pathlib import Path

from ..exec.journal import LogReplay, UnitLog, UnitState, fold, fold_file

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


def serve_dir(cache_dir) -> Path:
    """Where a sweep workdir keeps its daemon state."""
    return Path(cache_dir) / "serve"


def wal_path(cache_dir) -> Path:
    """The durable queue WAL for a sweep workdir (one per workdir)."""
    return serve_dir(cache_dir) / "queue.jsonl"


@dataclasses.dataclass
class UnitEntry(UnitState):
    """One deduplicated work unit the queue knows about."""

    unit: dict = dataclasses.field(default_factory=dict)
    #: tenant that first submitted the unit -- leases are charged here
    owner: str = ""
    #: every tenant that submitted this unit (dedup fan-in)
    tenants: set = dataclasses.field(default_factory=set)
    #: every ticket that references this unit
    tickets: set = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class TicketEntry:
    """One submission: a tenant's ordered list of unit digests."""

    ticket: str
    tenant: str
    digests: list = dataclasses.field(default_factory=list)
    submitted_unix: float = 0.0


@dataclasses.dataclass
class QueueReplay(LogReplay):
    """What the WAL says the queue looked like at the last append.

    ``state`` is the terminal state of the *last* boot (``stopped``
    clean, ``interrupted`` with work left), "running" if it was killed.
    """

    epoch: int = 0
    tickets: dict = dataclasses.field(default_factory=dict)  # id -> TicketEntry

    unit_type = UnitEntry

    def apply(self, rec: dict) -> None:
        t = rec.get("t")
        if t == "boot":
            self.epoch = max(self.epoch, int(rec.get("epoch", 0)))
            self.state = "running"  # a new boot supersedes the old terminal state
        elif t == "submit":
            d, ticket, tenant = rec["d"], rec["ticket"], rec.get("tenant", "")
            entry = self.units.get(d)
            if entry is None:
                entry = self.units[d] = UnitEntry(
                    digest=d, label=rec.get("label", ""),
                    unit=rec.get("unit") or {}, owner=tenant,
                )
            entry.tenants.add(tenant)
            entry.tickets.add(ticket)
            tk = self.tickets.get(ticket)
            if tk is None:
                tk = self.tickets[ticket] = TicketEntry(
                    ticket=ticket, tenant=tenant,
                    submitted_unix=rec.get("unix") or 0.0,
                )
            tk.digests.append(d)
        # "reject", "breaker", "drain" and "fenced" (older daemons only)
        # are audit trail: they never change queue membership

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
    rep = QueueReplay(path=Path(path))
    try:
        return fold_file(rep, path)
    except OSError:
        return rep


class QueueWAL(UnitLog):
    """The daemon's queue log: the unit records plus its own.

    Opening it replays what is already there into :attr:`replay`, and
    every append is folded into it after it is durable.
    """

    def __init__(self, path):
        self.replay = replay(path)
        super().__init__(path, "serve.wal")
        self._fold_lock = threading.Lock()  # appends fold in log order

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync), then fold it."""
        with self._fold_lock:
            self._log.append(record)
            fold(self.replay, record)

    # -- the daemon's own records ------------------------------------------
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

    def record_breaker(self, device: str, state: str) -> None:
        self.append(
            {"t": "breaker", "device": device, "state": state, "unix": time.time()}
        )

    def record_drain(self) -> None:
        self.append({"t": "drain", "unix": time.time()})

    def __enter__(self) -> "QueueWAL":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._log.close()
