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
  :class:`RunStatus`: unit accounting (planned / cached / done /
  failed / in-flight / queued), per-kind failure counts, progress %,
  throughput and ETA from completed-unit durations, degraded/resumed
  flags, and heartbeat-derived liveness.

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
from ..exec.journal import journal_dir

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
        self.run_id = self.path.stem if self.path.suffix else str(path)
        self.command = ""
        self.pid: Optional[int] = None
        self.state = "planned"
        self.resumed_from: Optional[str] = None
        self.planned = 0
        self.todo = 0
        self.demoted = False
        self.records = 0
        self.first_unix: Optional[float] = None
        self.last_unix: Optional[float] = None
        self.last_heartbeat: Optional[dict] = None
        self._starts: dict = {}  # digest -> (label, unix)
        self._completed: set = set()
        self._failed: dict = {}  # digest -> (kind, injected)
        self._durations: list = []
        self._done_unix: list = []

    # -- folding -----------------------------------------------------------
    def poll(self) -> "RunTracker":
        """Fold any new journal records in; cheap when nothing changed."""
        for rec in self.follower.poll():
            self._apply(rec)
        return self

    def _apply(self, rec: dict) -> None:
        self.records += 1
        t = rec.get("t")
        u = rec.get("unix")
        if isinstance(u, (int, float)):
            self.first_unix = u if self.first_unix is None else self.first_unix
            self.last_unix = u if self.last_unix is None else max(self.last_unix, u)
        if t == "run":
            self.run_id = rec.get("run_id", self.run_id)
            self.command = rec.get("command", "")
            self.resumed_from = rec.get("resumed_from")
            self.pid = rec.get("pid")
            self.state = "running"
        elif t == "plan":
            # a resumed run re-plans; the latest plan is the live one
            self.planned = int(rec.get("units", 0))
            self.todo = int(rec.get("todo", 0))
        elif t == "start":
            self._starts[rec["d"]] = (rec.get("label", ""), u)
        elif t == "done":
            d = rec["d"]
            started = self._starts.get(d)
            if started is not None and started[1] is not None and u is not None:
                self._durations.append(max(0.0, u - started[1]))
            if u is not None:
                self._done_unix.append(u)
            self._completed.add(d)
            self._failed.pop(d, None)
        elif t == "fail":
            self._failed[rec["d"]] = (
                rec.get("kind", "ERROR"), bool(rec.get("injected"))
            )
        elif t == "hb":
            self.last_heartbeat = rec
        elif t == "demote":
            self.demoted = True
        elif t == "state":
            self.state = rec.get("state", self.state)

    # -- derivation --------------------------------------------------------
    def _in_flight(self) -> dict:
        return {
            d: lab_ts for d, lab_ts in self._starts.items()
            if d not in self._completed and d not in self._failed
        }

    def _liveness(self, now: float):
        """(live, heartbeat_age).  None = terminal state or unknowable."""
        if self.state not in ("running", "planned"):
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
        in_flight = self._in_flight()
        done, failed = len(self._completed), len(self._failed)
        cached = max(0, self.planned - self.todo)
        queued = max(0, self.todo - done - failed - len(in_flight))
        progress = None
        if self.planned:
            progress = 100.0 * (cached + done + failed) / self.planned
        throughput = None
        if self._done_unix and self.first_unix is not None:
            span = max(self._done_unix) - self.first_unix
            if span > 0:
                throughput = len(self._done_unix) / span
        eta = None
        remaining = queued + len(in_flight)
        if self.state in ("running", "planned") and remaining and self._durations:
            eta = (sum(self._durations) / len(self._durations)) * remaining
        live, hb_age = self._liveness(now)
        stale = []
        if live is False:
            stale = sorted(lab for lab, _ in in_flight.values())
        kinds: dict = {}
        injected = 0
        for kind, inj in self._failed.values():
            kinds[kind] = kinds.get(kind, 0) + 1
            injected += inj
        hb = self.last_heartbeat or {}
        return RunStatus(
            run_id=self.run_id,
            command=self.command,
            state=self.state,
            live=live,
            pid=self.pid,
            planned=self.planned,
            cached=cached,
            done=done,
            failed=failed,
            in_flight=len(in_flight),
            queued=queued,
            progress_pct=progress,
            throughput_ups=throughput,
            eta_s=eta,
            fail_kinds=dict(sorted(kinds.items())),
            injected_failures=injected,
            stale_units=stale,
            demoted=self.demoted,
            resumed_from=self.resumed_from,
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
