"""Hierarchical span tracing for whole runs.

A :class:`Tracer` records a tree of :class:`Span`\\ s —
``sweep -> unit -> attempt -> launch`` — plus instant events (retries,
backoff sleeps, injected faults, cache quarantines) attached to
whichever span was open when they fired.  Timestamps are wall-clock
epoch seconds (``time.time()``), which is comparable across the pool
worker processes on one machine, so the parent can stitch worker spans
into its own timeline without rebasing.

Usage::

    tr = Tracer(run_id="sweep-1")
    with use_tracer(tr):
        with span("sweep.prewarm", "engine", units=41):
            ...
            event("retry.backoff", seconds=0.05)

    tr.finish()                 # closes the run span
    tr.events                   # list of finished Span/Instant records

When no tracer is installed (the default), :func:`span` and
:func:`event` are no-ops that allocate nothing — the telemetry-off
fast path the overhead test holds to budget.

Cross-process propagation: the engine hands each worker the pair
``(trace_id, parent_span_id)`` in its unit messages; the worker builds
its own :class:`Tracer` per unit with :func:`worker_tracer`, whose span
IDs carry the PID and the unit's count (collision-free), and ships its
finished events home inside the ok/err reply; the parent folds them in
with :meth:`Tracer.absorb`.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import os
import threading
import time
from typing import Optional

__all__ = [
    "Span",
    "Instant",
    "Tracer",
    "tracer",
    "use_tracer",
    "span",
    "event",
    "traced",
    "current_span_id",
    "worker_tracer",
]


@dataclasses.dataclass
class Span:
    """One timed operation in the run tree."""

    name: str
    cat: str  # "engine" | "cache" | "unit" | "launch" | ...
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    t0: float  # epoch seconds
    t1: Optional[float] = None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def as_dict(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "cat": self.cat,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }


@dataclasses.dataclass
class Instant:
    """A point event (retry, fault, quarantine) tied to an open span."""

    name: str
    cat: str
    span_id: Optional[str]  # the span that was open when it fired
    trace_id: str
    ts: float
    attrs: dict = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "instant",
            "name": self.name,
            "cat": self.cat,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "ts": self.ts,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects one process's spans; optionally streams them as JSONL."""

    def __init__(
        self,
        run_id: Optional[str] = None,
        jsonl_path: Optional[str] = None,
        root_name: str = "run",
        root_cat: str = "run",
        _id_prefix: Optional[str] = None,
        _root_parent: Optional[str] = None,
    ):
        self.trace_id = run_id or f"run-{os.getpid()}-{int(time.time() * 1e3):x}"
        self._prefix = _id_prefix if _id_prefix is not None else "s"
        self._next = 0
        self._lock = threading.Lock()
        #: finished spans + instants, in completion order
        self.events: list = []
        self._stack = threading.local()
        self._root_parent = _root_parent
        self._jsonl = open(jsonl_path, "a") if jsonl_path else None
        self.root = self.start_span(root_name, root_cat, pid=os.getpid())

    # -- span lifecycle ---------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self._prefix}{self._next}"

    def _tos(self) -> list:
        st = getattr(self._stack, "spans", None)
        if st is None:
            st = self._stack.spans = []
        return st

    def current(self) -> Optional[Span]:
        st = self._tos()
        return st[-1] if st else None

    def start_span(self, name: str, cat: str = "engine", **attrs) -> Span:
        parent = self.current()
        parent_id = (
            parent.span_id if parent is not None
            else getattr(self, "root", None) and self.root.span_id
            or self._root_parent
        )
        s = Span(
            name=name, cat=cat, span_id=self._new_id(), parent_id=parent_id,
            trace_id=self.trace_id, t0=time.time(), attrs=attrs,
        )
        self._tos().append(s)
        return s

    def end_span(self, s: Span, **attrs) -> Span:
        s.t1 = time.time()
        if attrs:
            s.attrs.update(attrs)
        st = self._tos()
        for i, open_span in enumerate(st):
            if open_span is s:
                del st[i:]
                break
        self._emit(s)
        return s

    def instant(self, name: str, cat: str = "engine", **attrs) -> Instant:
        cur = self.current()
        ev = Instant(
            name=name, cat=cat,
            span_id=cur.span_id if cur is not None else self.root.span_id,
            trace_id=self.trace_id, ts=time.time(), attrs=attrs,
        )
        self._emit(ev)
        return ev

    def record_span(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        parent_id: Optional[str] = None,
        **attrs,
    ) -> Span:
        """Add an explicitly-timed span (e.g. simulated kernel time).

        The virtual-clock spans of the simulator are re-anchored onto
        the wall timeline by their caller; this just records the result.
        """
        s = Span(
            name=name, cat=cat, span_id=self._new_id(),
            parent_id=parent_id or self.root.span_id,
            trace_id=self.trace_id, t0=t0, t1=t1, attrs=attrs,
        )
        self._emit(s)
        return s

    def _emit(self, ev) -> None:
        with self._lock:
            self.events.append(ev)
            if self._jsonl is not None:
                self._jsonl.write(json.dumps(ev.as_dict()) + "\n")
                self._jsonl.flush()

    # -- cross-process ----------------------------------------------------
    def export_events(self) -> list:
        """Finished events as JSON payloads (the worker->parent wire form)."""
        with self._lock:
            return [e.as_dict() for e in self.events]

    def absorb(self, payloads) -> int:
        """Fold a worker's exported events into this tracer's stream."""
        count = 0
        for d in payloads or ():
            if d.get("kind") == "instant":
                ev = Instant(
                    name=d["name"], cat=d["cat"], span_id=d["span_id"],
                    trace_id=self.trace_id, ts=d["ts"], attrs=d["attrs"],
                )
            else:
                ev = Span(
                    name=d["name"], cat=d["cat"], span_id=d["span_id"],
                    parent_id=d["parent_id"], trace_id=self.trace_id,
                    t0=d["t0"], t1=d["t1"], attrs=d["attrs"],
                )
            self._emit(ev)
            count += 1
        return count

    def abandon(self, reason: str = "interrupted") -> int:
        """Mark every still-open span as aborted; returns how many.

        Called by the graceful-shutdown path so a drained run's trace
        distinguishes "this span ended" from "this span was cut off":
        each open span gains ``aborted=True`` and the abandon reason,
        then closes at the abandon time.  The tracer stays usable — the
        end-of-run reporting spans still record normally.
        """
        open_spans = [s for s in self._tos() if s is not self.root]
        for s in reversed(open_spans):
            self.end_span(s, aborted=True, abort_reason=reason)
        return len(open_spans)

    def finish(self) -> None:
        """Close the run-root span (and any spans left open) and the log."""
        for s in reversed(list(self._tos())):
            self.end_span(s)
        if self.root.t1 is None:
            self.root.t1 = time.time()
            self._emit(self.root)
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None


#: process-wide active tracer; None (the default) disables span tracing
_ACTIVE: Optional[Tracer] = None


def tracer() -> Optional[Tracer]:
    return _ACTIVE


@contextlib.contextmanager
def use_tracer(t: Optional[Tracer]):
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = t
    try:
        yield t
    finally:
        _ACTIVE = prev


@contextlib.contextmanager
def span(name: str, cat: str = "engine", **attrs):
    """Open a span on the active tracer (no-op without one)."""
    t = _ACTIVE
    if t is None:
        yield None
        return
    s = t.start_span(name, cat, **attrs)
    try:
        yield s
    finally:
        t.end_span(s)


def event(name: str, cat: str = "engine", **attrs) -> None:
    """Record an instant event on the active tracer (no-op without one)."""
    t = _ACTIVE
    if t is not None:
        t.instant(name, cat, **attrs)


def current_span_id() -> Optional[str]:
    t = _ACTIVE
    if t is None:
        return None
    cur = t.current()
    return cur.span_id if cur is not None else t.root.span_id


def traced(name: Optional[str] = None, cat: str = "engine"):
    """Decorator form of :func:`span` for whole functions."""

    def deco(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label, cat):
                return fn(*args, **kwargs)

        return wrapper

    return deco


_worker_units = itertools.count()  # units this process traced as a worker


def worker_tracer(ctx) -> Optional[Tracer]:
    """Build the pool-worker-side tracer from a propagated span context.

    ``ctx`` is the ``(trace_id, parent_span_id)`` pair the engine put in
    the work-unit submission (or None when the parent ran untraced).
    Span IDs are prefixed with the worker PID and its unit count, so the
    parent absorbs any number of long-lived workers' units without collisions.
    """
    if ctx is None:
        return None
    trace_id, parent_id = ctx
    return Tracer(
        run_id=trace_id, root_name="worker", root_cat="pool",
        _id_prefix=f"w{os.getpid()}.{next(_worker_units)}-",
        _root_parent=parent_id,
    )
