"""repro.obs — out-of-process observability for sweep runs.

The engine durably writes three artifact streams as it runs: the
per-run journal WAL (with periodic heartbeat records), the per-run
metrics snapshot the heartbeat thread flushes, and — on request — the
merged chrome trace.  ``repro.obs`` is the read side: a CLI
(``python -m repro.obs``) that turns those artifacts into live status,
fleet overviews, Prometheus-scrapable metrics, and wall-clock
attribution *without any cooperation from the sweep process*, so it
works equally against a running, hung, crashed, or finished run.

Subcommands (see :mod:`repro.obs.__main__`):

* ``ls`` — every run under a cache dir, newest first;
* ``status`` — full derived :class:`~repro.obs.registry.RunStatus`
  for one run (``--json`` for machines);
* ``watch`` — live journal tailing with a re-rendered status block;
  ``--once`` emits one byte-deterministic snapshot instead;
* ``metrics`` — the run's metrics snapshot as an OpenMetrics
  textfile (``--check`` lints it);
* ``critpath`` — per-phase wall attribution of a merged trace.
"""
from __future__ import annotations

from .registry import (
    STALE_BEATS,
    JournalFollower,
    RunStatus,
    RunTracker,
    find_run,
    runs,
)

__all__ = [
    "STALE_BEATS",
    "JournalFollower",
    "RunStatus",
    "RunTracker",
    "find_run",
    "runs",
]
