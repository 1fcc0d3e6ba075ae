"""The unit-lifecycle log: one record vocabulary, one writer, one fold.

Both front ends keep a durable log of the units they run: the sweep
engine a :class:`RunJournal` per run (``<cache>/journal/<run-id>
.jsonl``), the daemon one :class:`~repro.serve.wal.QueueWAL`.  Both
write the unit records through :class:`UnitLog` (the record table is in
DESIGN.md, "Durable files"), and every reader -- resume,
:mod:`repro.obs`, the daemon's replay and live queue -- reduces them
with :func:`fold`, the one function that turns a unit record into unit
state.  A torn final line (the append a killed writer left) is counted
and ignored (see :mod:`repro.durable`).
"""
from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Optional

from .. import durable
from ..errors import FailureKind
from ..telemetry import log, metrics

__all__ = [
    "UnitLog",
    "UnitState",
    "LogReplay",
    "RunJournal",
    "JournalReplay",
    "UNIT_STATES",
    "journal_dir",
    "fold",
    "fold_file",
    "load",
    "resolve",
    "latest_resumable",
    "JOURNAL_SCHEMA",
]

#: v2 added per-record ``unix`` timestamps and ``hb`` records; v3
#: writes ``lease`` where v2 wrote ``start``, plus ``requeue`` records;
#: the fold reads every version
JOURNAL_SCHEMA = 3

#: terminal run states a journal's ``state`` record may carry
RUN_STATES = ("complete", "interrupted", "failed")

#: the states :func:`fold` gives a unit
UNIT_STATES = ("queued", "leased", "done", "failed")


def journal_dir(cache_dir) -> Path:
    """Where a sweep workdir keeps its run journals."""
    return Path(cache_dir) / "journal"


# -- the writer -------------------------------------------------------------
class UnitLog:
    """The unit-lifecycle records over one durable log.

    Every record goes through the subclass's own ``append``.
    ``metric`` names the counters its appends and heartbeats bump.
    """

    def __init__(self, path, metric: str) -> None:
        self._log = durable.Log(path, f"{metric}.appends", f"{metric}.append_s")
        self.path = self._log.path
        self._metric = metric
        self._hb_thread = None  # durable.every() thread
        self._hb_flush = None

    @property
    def closed(self) -> bool:
        return self._log.closed

    def _unit(self, t: str, digest: str, token: Optional[int], **fields) -> None:
        rec = {"t": t, "d": digest, **fields, "unix": time.time()}
        if token is not None:
            rec["token"] = token
        self.append(rec)

    def record_lease(
        self, digest: str, label: str, attempt: int, token: Optional[int] = None
    ) -> None:
        self._unit("lease", digest, token, label=label, attempt=attempt)

    def record_done(
        self, digest: str, source: str = "run", token: Optional[int] = None
    ) -> None:
        self._unit("done", digest, token, source=source)

    def record_fail(
        self, digest: str, kind: str, injected: bool = False, attempts: int = 1,
        token: Optional[int] = None,
    ) -> None:
        self._unit(
            "fail", digest, token, kind=kind, injected=injected,
            attempts=attempts,
        )

    def record_requeue(
        self, digest: str, reason: str, token: Optional[int] = None
    ) -> None:
        self._unit("requeue", digest, token, reason=reason)

    def record_settle(self, job, verdict: str, reply: dict) -> None:
        """Record the verdict :meth:`UnitQueue.settle` gave ``job``."""
        if verdict == "done":
            self.record_done(job.digest, "run", job.token)
            return
        err = reply["err"]
        if verdict == "retry":
            self.record_requeue(job.digest, (
                "transient" if err["kind"] == FailureKind.TRANSIENT.value
                else err["message"]
            ), job.token)
        else:
            self.record_fail(
                job.digest, err["kind"], bool(err["injected"]), job.attempt,
                job.token,
            )

    def record_heartbeat(self, interval: float, **progress) -> None:
        """One liveness beat: pid + interval + whatever progress counters."""
        self.append(
            {"t": "hb", "unix": time.time(), "pid": os.getpid(),
             "interval": float(interval), **progress}
        )
        metrics.counter(f"{self._metric}.heartbeats").inc()

    def record_state(self, state: str) -> None:
        self.append({"t": "state", "state": state, "unix": time.time()})

    # -- heartbeat thread --------------------------------------------------
    def start_heartbeat(
        self, interval: float, stats_fn=None, flush_fn=None
    ) -> bool:
        """Beat every ``interval`` seconds until :meth:`stop_heartbeat`.

        ``stats_fn`` (when given) supplies the progress counters each
        beat carries; ``flush_fn`` runs after every beat, and once more
        when the beating stops -- the front ends flush their metrics
        snapshot with it, so an out-of-process scraper always sees data
        at most one beat old.  Idempotent: only the first call starts a
        thread.
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

    def stop_heartbeat(self) -> None:
        """Stop beating, then run the flush once more (a final snapshot)."""
        if self._hb_thread is None:
            return
        self._hb_thread.stop()
        self._hb_thread = None
        try:
            self._hb_flush()  # final snapshot covers the whole run
        except Exception:
            pass
        self._hb_flush = None

    def close(self, state: str) -> None:
        """Stop the heartbeat, write the terminal ``state``, close the file."""
        self.stop_heartbeat()
        self.record_state(state)
        self._log.close()


# -- the fold ---------------------------------------------------------------
@dataclasses.dataclass
class UnitState:
    """One digest's life, as the log tells it."""

    digest: str
    label: str = ""
    state: str = "queued"  # one of UNIT_STATES
    attempts: int = 0
    #: the open lease's token, where the front end mints them
    token: Optional[int] = None
    #: ``unix`` of the lease that put it in flight
    leased_unix: Optional[float] = None
    #: how the terminal ``done`` was served: "run" | "cache"
    source: str = ""
    #: a failed unit's FailureKind value, and whether it was planted
    kind: str = ""
    injected: bool = False


@dataclasses.dataclass
class LogReplay:
    """What a unit-lifecycle log says, folded record by record."""

    path: Optional[Path] = None
    #: the writer's last ``state`` record; "running" while it has none
    state: str = "running"
    units: dict = dataclasses.field(default_factory=dict)  # digest -> UnitState
    #: the next lease token must be above every token the log mentions
    next_token: int = 1
    records: int = 0
    #: torn/unparseable lines skipped during replay
    torn_lines: int = 0
    first_unix: Optional[float] = None
    last_unix: Optional[float] = None
    last_heartbeat: Optional[dict] = None

    #: what :meth:`unit` creates for a digest first mentioned
    unit_type = UnitState

    def unit(self, digest: str) -> UnitState:
        st = self.units.get(digest)
        if st is None:
            st = self.units[digest] = self.unit_type(digest=digest)
        return st

    def apply(self, rec: dict) -> None:
        """Fold a record of this front end's own (non-unit) types."""

    def _where(self, state: str) -> list:
        return [d for d, u in self.units.items() if u.state == state]

    @property
    def open_leases(self) -> dict:
        """digest -> token of every lease no record has ended yet."""
        return {d: u.token for d, u in self.units.items() if u.state == "leased"}

    @property
    def in_flight(self) -> set:
        """Leased units: the writer died (or stopped) holding them."""
        return set(self._where("leased"))

    @property
    def completed(self) -> set:
        """Units with a ``done``: their cached results are trusted."""
        return set(self._where("done"))

    @property
    def failed(self) -> dict:
        """digest -> kind of every terminally failed unit."""
        return {d: self.units[d].kind for d in self._where("failed")}

    @property
    def injected(self) -> set:
        """The failed units whose fault ``repro.faults`` planted."""
        return {d for d in self._where("failed") if self.units[d].injected}


def fold(rep: LogReplay, rec: dict) -> None:
    """Fold one record into ``rep``, in log order.

    A lease puts a unit in flight until a ``done``, ``fail`` or
    ``requeue`` ends it; a settled unit stays settled, and ``done`` wins
    over ``fail``.  Records of other types go to ``rep.apply``.
    """
    rep.records += 1
    u = rec.get("unix")
    if isinstance(u, (int, float)):
        if rep.first_unix is None:
            rep.first_unix = u
        rep.last_unix = u if rep.last_unix is None else max(rep.last_unix, u)
    t = rec.get("t")
    if t in ("lease", "start"):
        token = rec.get("token")
        if token is not None:
            rep.next_token = max(rep.next_token, int(token) + 1)
        st = rep.unit(rec["d"])
        if rec.get("label"):
            st.label = rec["label"]
        if st.state in ("done", "failed"):
            return
        st.state, st.token, st.leased_unix = "leased", token, u
        st.attempts = max(st.attempts, int(rec.get("attempt", 1)))
    elif t == "done":
        st = rep.unit(rec["d"])
        st.state, st.token, st.source = "done", None, rec.get("source", "run")
        st.kind, st.injected = "", False
    elif t == "fail":
        st = rep.unit(rec["d"])
        if st.state == "done":
            return  # its result is durable: the failure changes nothing
        st.state, st.token = "failed", None
        st.kind = rec.get("kind", "ERROR")
        st.injected = bool(rec.get("injected"))
        st.attempts = max(st.attempts, int(rec.get("attempts", 1)))
    elif t == "requeue":
        st = rep.units.get(rec["d"])
        if st is not None and st.state == "leased":
            st.state, st.token = "queued", None
    elif t == "hb":
        rep.last_heartbeat = rec
    elif t == "state":
        rep.state = rec.get("state", rep.state)
    else:
        rep.apply(rec)


def fold_file(rep: LogReplay, path) -> LogReplay:
    """Fold a whole log file into ``rep``; ``OSError`` if unreadable."""
    records, rep.torn_lines = durable.replay(path)
    for rec in records:
        fold(rep, rec)
    return rep


# -- the run journal --------------------------------------------------------
@dataclasses.dataclass
class JournalReplay(LogReplay):
    """What a run journal says happened, classified for resume.

    ``state`` is one of RUN_STATES, or "running" when the journal ends
    without a state record (the process was killed outright).
    """

    run_id: str = ""
    command: str = ""
    #: run id this journal itself resumed from, when chained
    resumed_from: Optional[str] = None

    def apply(self, rec: dict) -> None:
        if rec.get("t") == "run":
            self.run_id = rec.get("run_id", self.run_id)
            self.command = rec.get("command", "")
            self.resumed_from = rec.get("resumed_from")
            self.state = "running"
        # "plan" is the status tracker's; "demote" (older engines) is history

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


class RunJournal(UnitLog):
    """One sweep run's journal: the unit records plus a run header and plan.

    While the sweep runs, :meth:`start_heartbeat` makes the journal its
    liveness channel too, so :mod:`repro.obs` can tell a live run from a
    crashed one from outside the process.
    """

    def __init__(self, path, run_id: str):
        super().__init__(path, "journal")
        self.run_id = run_id

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

    def close(self, state: str = "complete") -> None:
        """Write the terminal ``state`` record and close the file."""
        if self.closed:
            return
        if state not in RUN_STATES:
            raise ValueError(f"unknown run state {state!r}; one of {RUN_STATES}")
        super().close(state)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close(
                "complete" if exc_type is None else "failed"
            )


def load(path) -> JournalReplay:
    """Replay one journal file into a :class:`JournalReplay`.

    Unparseable lines (the torn tail of a killed writer) are skipped and
    counted, never fatal.
    """
    path = Path(path)
    try:
        return fold_file(JournalReplay(run_id=path.stem, path=path), path)
    except OSError as e:
        raise FileNotFoundError(f"no journal at {path}: {e}") from e


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
