"""The per-run sweep journal: a write-ahead log for crash-safe sweeps.

A :class:`RunJournal` is an append-only JSONL file under the sweep
workdir (``<cache>/journal/<run-id>.jsonl``) recording the lifecycle of
every work unit the engine admits: ``start`` before execution, ``done``
after the result is stored (the result itself is written atomically by
:class:`~repro.exec.cache.ResultCache`), ``fail`` on terminal failure,
plus run-level records (``run`` header, ``demote`` for degraded-mode
transitions, a final ``state`` of ``complete`` / ``interrupted`` /
``failed``).  The file is a :class:`repro.durable.Log`: every append
is flushed and fsynced, so the journal is the durable source of truth
about what a killed process was doing.

While a sweep runs, the journal is also its *liveness* channel: a
daemon thread started by :meth:`RunJournal.start_heartbeat` appends a
``hb`` record every few seconds (progress counters, pid, interval), so
an out-of-process reader (:mod:`repro.obs`) can tell a live run from a
crashed one and flag in-flight units that have outlived the beat.  The
same thread drives the periodic metrics-snapshot flush the OpenMetrics
exporter reads.

Replay (:func:`load` -> :class:`JournalReplay`) classifies every digest
the journal mentions.  :func:`fold` is the one reducer behind it: the
resume path and :mod:`repro.obs`'s live status both fold records with
it, so the two can never disagree about a unit:

* **completed** — a ``done`` record exists; the atomic cache entry for
  the digest is trusted and the unit is *not* re-simulated on resume;
* **failed** — terminally failed (its kind is preserved for reporting);
* **in-flight** — ``start`` with no ``done``/``fail``: the process died
  (or was interrupted) while the unit executed, so resume re-enqueues
  it.

A torn final line — the record being appended when the process died —
is counted and ignored (see :mod:`repro.durable`); everything before it
is intact by the append-only discipline.
"""
from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Optional

from .. import durable
from ..telemetry import log, metrics

__all__ = [
    "RunJournal",
    "JournalReplay",
    "journal_dir",
    "fold",
    "load",
    "resolve",
    "latest_resumable",
    "JOURNAL_SCHEMA",
]

#: v2 added per-record ``unix`` timestamps and periodic ``hb``
#: heartbeat records; replay ignores both, so v1 journals still resume
JOURNAL_SCHEMA = 2

#: terminal run states a ``state`` record may carry
RUN_STATES = ("complete", "interrupted", "failed")


def journal_dir(cache_dir) -> Path:
    """Where a sweep workdir keeps its run journals."""
    return Path(cache_dir) / "journal"


@dataclasses.dataclass
class JournalReplay:
    """What a journal says happened, classified for resume."""

    run_id: str
    path: Optional[Path]
    #: final run state: one of RUN_STATES, or "running" when the journal
    #: ends without a state record (the process was killed outright)
    state: str = "running"
    command: str = ""
    #: digests with a ``done`` record (served results are durable)
    completed: set = dataclasses.field(default_factory=set)
    #: digest -> kind for terminally failed units
    failed: dict = dataclasses.field(default_factory=dict)
    #: the failed digests whose fault was planted by ``repro.faults``
    injected: set = dataclasses.field(default_factory=set)
    #: digests with a ``start`` but neither ``done`` nor ``fail``
    in_flight: set = dataclasses.field(default_factory=set)
    #: digest -> label, for human-readable resume reporting
    labels: dict = dataclasses.field(default_factory=dict)
    #: run id this journal itself resumed from, when chained
    resumed_from: Optional[str] = None
    #: torn/unparseable lines skipped during replay
    torn_lines: int = 0
    demoted: bool = False

    @property
    def resumable(self) -> bool:
        """True unless the run already completed cleanly."""
        return self.state != "complete"

    def summary(self) -> dict:
        return {
            "from": self.run_id,
            "state": self.state,
            "completed": len(self.completed),
            "failed": len(self.failed),
            "in_flight": len(self.in_flight),
            "torn_lines": self.torn_lines,
        }


class RunJournal:
    """One sweep run's journal: record schema over a durable log."""

    def __init__(self, path, run_id: str):
        self._log = durable.Log(path, "journal.appends", "journal.append_s")
        self.path = self._log.path
        self.run_id = run_id
        self._hb_thread = None  # durable.every() thread
        self._hb_flush = None

    @property
    def closed(self) -> bool:
        return self._log.closed

    # -- construction -----------------------------------------------------
    @classmethod
    def create(
        cls,
        root,
        run_id: str,
        command: str = "",
        argv=None,
        resumed_from: Optional[str] = None,
    ) -> "RunJournal":
        """Open a fresh journal under ``root`` and write its run header."""
        j = cls(journal_dir(root) / f"{run_id}.jsonl", run_id)
        j.append(
            {
                "t": "run",
                "schema": JOURNAL_SCHEMA,
                "run_id": run_id,
                "command": command,
                "argv": [str(a) for a in (argv or ())],
                "resumed_from": resumed_from,
                "pid": os.getpid(),
                "unix": time.time(),
            }
        )
        return j

    # -- appending --------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        self._log.append(record)

    def record_plan(self, units: int, todo: int) -> None:
        self.append({"t": "plan", "units": units, "todo": todo, "unix": time.time()})

    def record_start(self, digest: str, label: str, attempt: int = 1) -> None:
        self.append(
            {"t": "start", "d": digest, "label": label, "attempt": attempt,
             "unix": time.time()}
        )

    def record_done(self, digest: str, source: str = "run") -> None:
        self.append({"t": "done", "d": digest, "source": source, "unix": time.time()})

    def record_fail(self, digest: str, kind: str, injected: bool = False) -> None:
        self.append(
            {"t": "fail", "d": digest, "kind": kind, "injected": injected,
             "unix": time.time()}
        )

    def record_demote(self, incidents: int, reason: str) -> None:
        self.append({"t": "demote", "incidents": incidents, "reason": reason})

    def record_heartbeat(self, interval: float, **progress) -> None:
        """One liveness beat: pid + interval + whatever progress counters."""
        self.append(
            {"t": "hb", "unix": time.time(), "pid": os.getpid(),
             "interval": float(interval), **progress}
        )
        metrics.counter("journal.heartbeats").inc()

    # -- heartbeat thread --------------------------------------------------
    def start_heartbeat(
        self, interval: float, stats_fn=None, flush_fn=None
    ) -> bool:
        """Beat every ``interval`` seconds until :meth:`close` (daemon).

        ``stats_fn`` (when given) supplies the progress counters each
        beat carries; ``flush_fn`` runs after every beat — the engine
        uses it to flush its metrics snapshot so an out-of-process
        scraper always sees data at most one beat old.  Idempotent:
        only the first call starts a thread.
        """
        if interval <= 0 or self._hb_thread is not None or self.closed:
            return False
        self._hb_flush = flush_fn

        def beat() -> None:
            self.record_heartbeat(
                interval, **(stats_fn() if stats_fn is not None else {})
            )
            if flush_fn is not None:
                flush_fn()

        self._hb_thread = durable.every(interval, beat)
        return True

    def close(self, state: str = "complete") -> None:
        """Write the terminal ``state`` record and close the file."""
        if self.closed:
            return
        if self._hb_thread is not None:
            self._hb_thread.stop()
            self._hb_thread = None
        if state not in RUN_STATES:
            raise ValueError(f"unknown run state {state!r}; one of {RUN_STATES}")
        if self._hb_flush is not None:
            try:
                self._hb_flush()  # final snapshot covers the whole run
            except Exception:
                pass
        self.append({"t": "state", "state": state, "unix": time.time()})
        self._log.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close(
                "complete" if exc_type is None else "failed"
            )


# -- replay ---------------------------------------------------------------
def fold(rep: JournalReplay, rec: dict) -> None:
    """Fold one journal record into ``rep``, in journal order.

    A unit is in flight from its ``start`` until a ``done`` or ``fail``
    settles it; a settled unit never becomes in-flight again, and a
    ``done`` overrides an earlier ``fail``.  Record types this reducer
    does not know (``plan``, ``hb``) are left to the caller.
    """
    t = rec.get("t")
    if t == "run":
        rep.run_id = rec.get("run_id", rep.run_id)
        rep.command = rec.get("command", "")
        rep.resumed_from = rec.get("resumed_from")
        rep.state = "running"
    elif t == "start":
        d = rec["d"]
        if rec.get("label"):
            rep.labels[d] = rec["label"]
        if d not in rep.completed and d not in rep.failed:
            rep.in_flight.add(d)
    elif t == "done":
        d = rec["d"]
        rep.completed.add(d)
        rep.failed.pop(d, None)
        rep.injected.discard(d)
        rep.in_flight.discard(d)
    elif t == "fail":
        d = rec["d"]
        rep.failed[d] = rec.get("kind", "ERROR")
        if rec.get("injected"):
            rep.injected.add(d)
        else:
            rep.injected.discard(d)
        rep.in_flight.discard(d)
    elif t == "demote":
        rep.demoted = True
    elif t == "state":
        rep.state = rec.get("state", rep.state)


def load(path) -> JournalReplay:
    """Replay one journal file into a :class:`JournalReplay`.

    Unparseable lines (the torn tail of a killed writer) are skipped and
    counted, never fatal.
    """
    path = Path(path)
    rep = JournalReplay(run_id=path.stem, path=path)
    try:
        records, rep.torn_lines = durable.replay(path)
    except OSError as e:
        raise FileNotFoundError(f"no journal at {path}: {e}") from e
    for rec in records:
        fold(rep, rec)
    return rep


def resolve(root, run_id: str) -> Path:
    """The journal path for ``run_id`` under a sweep workdir."""
    return journal_dir(root) / f"{run_id}.jsonl"


def latest_resumable(root) -> Optional[JournalReplay]:
    """The most recent journal under ``root`` that did not complete.

    This is the ``--resume auto`` path: pick the newest interrupted (or
    killed-outright) run and carry on from its durable record.
    """
    d = journal_dir(root)
    if not d.is_dir():
        return None
    candidates = sorted(
        d.glob("*.jsonl"), key=lambda p: p.stat().st_mtime, reverse=True
    )
    for p in candidates:
        try:
            rep = load(p)
        except (OSError, ValueError):
            continue
        if rep.resumable:
            return rep
    return None


def open_resume(root, token: str) -> JournalReplay:
    """Resolve a ``--resume`` token: a run id, or ``auto``/``latest``.

    Raises ``SystemExit`` with a diagnostic when nothing resumable is
    found — the CLIs surface this directly.
    """
    if token in ("auto", "latest"):
        rep = latest_resumable(root)
        if rep is None:
            raise SystemExit(
                f"--resume {token}: no resumable journal under {journal_dir(root)}"
            )
    else:
        path = resolve(root, token)
        if not path.exists():
            raise SystemExit(f"--resume {token}: no journal at {path}")
        rep = load(path)
        if not rep.resumable:
            log.warn(
                "journal.resume",
                f"run {token} completed cleanly; resuming serves it "
                "entirely from cache",
            )
    log.info(
        "journal.resume",
        f"resuming {rep.run_id} ({rep.state}): "
        f"{len(rep.completed)} completed, {len(rep.in_flight)} in flight, "
        f"{len(rep.failed)} failed",
    )
    return rep
