"""Chrome-trace export: the one Trace Event Format builder and writer.

:func:`trace_document` wraps a list of events in the process/thread
metadata every trace carries, and :func:`write_document` serializes
it.  Two producers feed it: :mod:`repro.prof.trace` (one benchmark's
launch timeline on the virtual clock) and :func:`chrome_trace` below
(whole runs: one ``trace.json``, loadable in chrome://tracing /
Perfetto, showing engine scheduling, cache I/O, retries/backoff,
injected faults, and the simulator's virtual kernel time on a single
timeline).

Mapping:

* every finished :class:`~repro.telemetry.spans.Span` becomes a
  ``ph: "X"`` complete slice; its category picks the display thread
  (engine scheduling, cache I/O, units, simulated launches);
* every :class:`~repro.telemetry.spans.Instant` becomes a ``ph: "i"``
  instant event — faults and retries show as markers on the row of the
  span they interrupted;
* timestamps are wall-clock microseconds rebased to the run start, so
  the earliest event sits at t=0 like the per-launch traces.

Simulated kernel spans are recorded by the engine itself (it re-anchors
each unit's virtual-clock launch profile at the wall time the unit
started executing), so this module only needs to lay events out.
"""
from __future__ import annotations

import json
from typing import Iterable, Optional

__all__ = ["trace_document", "write_document", "chrome_trace", "write_trace"]

#: trace-event timestamps are microseconds
US = 1e6

#: span category -> (tid, human row name); unknown categories land on
#: the engine row rather than vanishing
_ROWS = {
    "run": (1, "run"),
    "engine": (2, "engine scheduling"),
    "pool": (3, "worker pool"),
    "unit": (4, "work units"),
    "cache": (5, "cache I/O"),
    "launch": (6, "simulated launches"),
    "fault": (7, "faults"),
    "log": (8, "diagnostics"),
}
_DEFAULT_ROW = _ROWS["engine"]


def _tid(cat: str) -> int:
    return _ROWS.get(cat, _DEFAULT_ROW)[0]


def trace_document(events: list, process_name: str, rows) -> dict:
    """A trace document: process and thread metadata, then ``events``.

    ``rows`` are the ``(tid, name)`` pairs the viewer labels.
    """
    meta = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for tid, row in rows:
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": row},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_document(doc: dict, path: str) -> str:
    """Serialize one trace document to ``path``; returns the path."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def chrome_trace(events: Iterable, process_name: str = "repro run") -> dict:
    """The merged run trace of tracer events (Span/Instant or their dicts)."""
    evs = [e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in events]
    if not evs:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t_base = min(e["t0"] if e.get("kind") != "instant" else e["ts"] for e in evs)
    out: list = []
    for e in evs:
        attrs = dict(e.get("attrs") or {})
        if e.get("kind") == "instant":
            out.append(
                {
                    "name": e["name"],
                    "cat": e["cat"],
                    "ph": "i",
                    "s": "t",  # thread-scoped marker
                    "pid": 1,
                    "tid": _tid(e["cat"]),
                    "ts": (e["ts"] - t_base) * US,
                    "args": attrs,
                }
            )
            continue
        t0 = e["t0"]
        t1 = e["t1"] if e["t1"] is not None else t0
        attrs.setdefault("span_id", e["span_id"])
        if e.get("parent_id"):
            attrs.setdefault("parent_id", e["parent_id"])
        out.append(
            {
                "name": e["name"],
                "cat": e["cat"],
                "ph": "X",
                "pid": 1,
                "tid": _tid(e["cat"]),
                "ts": (t0 - t_base) * US,
                "dur": max(t1 - t0, 1e-9) * US,
                "args": attrs,
            }
        )
    return trace_document(out, process_name, sorted(set(_ROWS.values())))


def write_trace(
    events: Iterable, path: str, process_name: Optional[str] = None
) -> str:
    """Serialize the merged run trace to ``path``; returns the path."""
    doc = chrome_trace(events, process_name or "repro run")
    return write_document(doc, path)
