"""Run registry: discover journals, derive live status out-of-process.

Everything here reads artifacts the engine already durably writes — the
per-run journal WAL (:mod:`repro.exec.journal`) and the heartbeat
records inside it — without any cooperation from the sweep process.
That is the design constraint that makes ``repro.obs`` usable against a
run that is hung, crashed, or merely busy: observation is a pure read.

Two layers:

* :class:`JournalFollower` — :class:`repro.durable.Follower`, the
  incremental, torn-tail-tolerant JSONL reader.  Only
  newline-terminated lines are consumed; the torn tail a live writer is
  mid-append on (or a killed writer left behind) stays in the file
  unconsumed, so a later poll picks it up once complete.  A *complete*
  line that still fails to parse is counted and skipped.
* :class:`RunTracker` — folds journal records into a
  :class:`RunStatus`.  Completed, failed and in-flight units come from
  the resume path's own reducer (:func:`repro.exec.journal.fold`); the
  tracker adds only what status needs on top: plan counts, progress %,
  throughput and ETA from completed-unit durations, and
  heartbeat-derived liveness.

Liveness semantics: a ``running`` journal whose last heartbeat is older
than :data:`STALE_BEATS` intervals is presumed dead — its in-flight
units are reported as *stale* (orphans a ``--resume`` would re-run),
which is exactly the live-vs-crashed distinction the heartbeat records
exist to answer.
"""
from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Optional

from ..durable import DEFAULT_HEARTBEAT_S
from ..durable import Follower as JournalFollower
from ..exec.journal import JournalReplay, fold, journal_dir

__all__ = [
    "STALE_BEATS",
    "JournalFollower",
    "RunTracker",
    "RunStatus",
    "runs",
    "find_run",
]

#: heartbeats a running journal may miss before it counts as dead
STALE_BEATS = 3


@dataclasses.dataclass
class RunStatus:
    """Everything ``repro.obs`` knows about one run, derived on demand."""

    run_id: str
    command: str
    #: "planned" (header only) / "running" / "complete" / "interrupted"
    #: / "failed" — the journal's own state machine
    state: str
    #: True = heartbeat fresh, False = presumed dead, None = not
    #: applicable (terminal state) or unknowable (no heartbeats yet)
    live: Optional[bool]
    pid: Optional[int]
    planned: int
    cached: int
    done: int
    failed: int
    in_flight: int
    queued: int
    #: percent of planned units accounted for (cached+done+failed)
    progress_pct: Optional[float]
    #: completed units per second, over the run's journaled lifetime
    throughput_ups: Optional[float]
    #: remaining-work estimate from mean completed-unit duration
    eta_s: Optional[float]
    #: FailureKind.value -> count, terminally failed units only
    fail_kinds: dict
    injected_failures: int
    #: labels of in-flight units owned by a presumed-dead run
    stale_units: list
    demoted: bool
    resumed_from: Optional[str]
    heartbeat_age_s: Optional[float]
    heartbeat_interval_s: Optional[float]
    started_unix: Optional[float]
    updated_unix: Optional[float]
    records: int
    torn_lines: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class RunTracker:
    """Incremental journal replay specialised for *status*, not resume."""

    def __init__(self, path):
        self.follower = JournalFollower(path)
        self.path = Path(path)
        #: completed / failed / in-flight units, as resume would see them
        self.replay = JournalReplay(
            run_id=self.path.stem if self.path.suffix else str(path),
            path=self.path,
            state="planned",
        )
        self.pid: Optional[int] = None
        self.planned = 0
        self.todo = 0
        self.records = 0
        self.first_unix: Optional[float] = None
        self.last_unix: Optional[float] = None
        self.last_heartbeat: Optional[dict] = None
        self._start_unix: dict = {}  # digest -> unix of its latest start
        self._durations: list = []
        self._done_unix: list = []

    @property
    def run_id(self) -> str:
        return self.replay.run_id

    # -- folding -----------------------------------------------------------
    def poll(self) -> "RunTracker":
        """Fold any new journal records in; cheap when nothing changed."""
        for rec in self.follower.poll():
            self._apply(rec)
        return self

    def _apply(self, rec: dict) -> None:
        self.records += 1
        fold(self.replay, rec)
        t = rec.get("t")
        u = rec.get("unix")
        if isinstance(u, (int, float)):
            self.first_unix = u if self.first_unix is None else self.first_unix
            self.last_unix = u if self.last_unix is None else max(self.last_unix, u)
        if t == "run":
            self.pid = rec.get("pid")
        elif t == "plan":
            # a resumed run re-plans; the latest plan is the live one
            self.planned = int(rec.get("units", 0))
            self.todo = int(rec.get("todo", 0))
        elif t == "start":
            self._start_unix[rec["d"]] = u
        elif t == "done":
            started = self._start_unix.get(rec["d"])
            if started is not None and u is not None:
                self._durations.append(max(0.0, u - started))
            if u is not None:
                self._done_unix.append(u)
        elif t == "hb":
            self.last_heartbeat = rec

    # -- derivation --------------------------------------------------------
    def _liveness(self, now: float):
        """(live, heartbeat_age).  None = terminal state or unknowable."""
        if self.replay.state not in ("running", "planned"):
            return None, None
        hb = self.last_heartbeat
        if hb is not None and isinstance(hb.get("unix"), (int, float)):
            age = max(0.0, now - hb["unix"])
            interval = float(hb.get("interval") or DEFAULT_HEARTBEAT_S)
            return age <= STALE_BEATS * interval, age
        # no heartbeat yet: fall back to the age of the last record —
        # old journals (schema 1) and runs killed before the first beat
        if self.last_unix is None:
            return None, None
        return (now - self.last_unix) <= STALE_BEATS * DEFAULT_HEARTBEAT_S, None

    def status(self, now: Optional[float] = None) -> RunStatus:
        """Derive the :class:`RunStatus` as of ``now``.

        Passing ``now`` pins every age/ETA computation, which is what
        makes ``repro.obs status --once`` byte-deterministic: with
        ``now = last_unix`` the output depends only on journal bytes.
        """
        now = time.time() if now is None else float(now)
        rep = self.replay
        in_flight = len(rep.in_flight)
        done, failed = len(rep.completed), len(rep.failed)
        cached = max(0, self.planned - self.todo)
        queued = max(0, self.todo - done - failed - in_flight)
        progress = None
        if self.planned:
            progress = 100.0 * (cached + done + failed) / self.planned
        throughput = None
        if self._done_unix and self.first_unix is not None:
            span = max(self._done_unix) - self.first_unix
            if span > 0:
                throughput = len(self._done_unix) / span
        eta = None
        remaining = queued + in_flight
        if rep.state in ("running", "planned") and remaining and self._durations:
            eta = (sum(self._durations) / len(self._durations)) * remaining
        live, hb_age = self._liveness(now)
        stale = []
        if live is False:
            stale = sorted(rep.labels.get(d, "") for d in rep.in_flight)
        kinds: dict = {}
        for kind in rep.failed.values():
            kinds[kind] = kinds.get(kind, 0) + 1
        hb = self.last_heartbeat or {}
        return RunStatus(
            run_id=rep.run_id,
            command=rep.command,
            state=rep.state,
            live=live,
            pid=self.pid,
            planned=self.planned,
            cached=cached,
            done=done,
            failed=failed,
            in_flight=in_flight,
            queued=queued,
            progress_pct=progress,
            throughput_ups=throughput,
            eta_s=eta,
            fail_kinds=dict(sorted(kinds.items())),
            injected_failures=len(rep.injected),
            stale_units=stale,
            demoted=rep.demoted,
            resumed_from=rep.resumed_from,
            heartbeat_age_s=hb_age,
            heartbeat_interval_s=hb.get("interval"),
            started_unix=self.first_unix,
            updated_unix=self.last_unix,
            records=self.records,
            torn_lines=self.follower.torn_lines,
        )


# -- discovery -------------------------------------------------------------
def runs(cache_dir) -> list:
    """Every run under a sweep workdir, newest journal activity first."""
    d = journal_dir(cache_dir)
    if not d.is_dir():
        return []
    trackers = [RunTracker(p).poll() for p in sorted(d.glob("*.jsonl"))]
    trackers.sort(
        key=lambda t: (t.last_unix or 0.0, t.run_id), reverse=True
    )
    return trackers


def find_run(cache_dir, token: Optional[str]) -> RunTracker:
    """Resolve a run id (or None/"latest" for the newest) to a tracker.

    Raises ``SystemExit`` with a diagnostic when nothing matches — the
    CLI surfaces this directly, like ``--resume`` does.
    """
    if token in (None, "", "latest"):
        found = runs(cache_dir)
        if not found:
            raise SystemExit(
                f"no run journals under {journal_dir(cache_dir)}"
            )
        return found[0]
    path = journal_dir(cache_dir) / f"{token}.jsonl"
    if not path.exists():
        known = ", ".join(t.run_id for t in runs(cache_dir)[:5]) or "none"
        raise SystemExit(
            f"no journal for run {token!r} under {journal_dir(cache_dir)} "
            f"(latest: {known})"
        )
    return RunTracker(path).poll()
