"""Process-wide metrics registry: counters, gauges, histograms.

Every layer of the stack (engine, cache, fault injector, runtimes,
simulator) reports into one :class:`MetricsRegistry` so a run's
behaviour — cache hit ratio, retry counts, per-FailureKind totals,
launch-overhead distributions — is observable without grepping logs.

The contract:

* **Exact sums.**  Counter totals and histogram sums add as integers
  (every finite double is a whole number of 2**-1074) and read as the
  correctly rounded float, so a total never depends on the order or
  grouping of its additions.  Non-finite increments keep their IEEE
  meaning.  A bump is a dict lookup, an uncontended lock and one
  integer add: every update holds its registry's lock.
* **One hand-off per attempt.**  Each unit attempt
  (:func:`repro.exec.dispatch.run_attempt`) runs under a registry of
  its own, on a pool worker and on the calling thread alike, and hands
  its snapshot (each sum rounded once) to the run's
  :meth:`~MetricsRegistry.merge_snapshot`.  A merge holds the
  registry's lock, as a snapshot does; it adds sums exactly and bucket
  counts element-wise (a histogram's fixed boundaries are part of its
  identity) and keeps gauges' high-water marks.  So a run's totals are
  the same bits at any ``--jobs``, grouping and settle order.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

from .. import durable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS_S",
    "OVERHEAD_BUCKETS_S",
    "FSYNC_BUCKETS_S",
    "registry",
    "use_registry",
    "counter",
    "gauge",
    "histogram",
    "SNAPSHOT_SCHEMA",
    "snapshot_path",
    "write_snapshot_file",
    "load_snapshot_file",
]

#: default boundaries for wall/virtual time observations (seconds),
#: 1us .. 100s in decade-and-third steps; fixed so merges are stable
TIME_BUCKETS_S = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: launch overheads live in the 10-200us band the paper measures
#: (Section V.D); a finer grid there keeps the distribution readable
OVERHEAD_BUCKETS_S = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2,
)

#: journal fsync latencies: sub-ms on local disk, tens of ms on
#: networked CI filesystems — the grid spans both so the WAL's real
#: durability cost stays visible in the run manifest
FSYNC_BUCKETS_S = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


#: every finite double is a whole number of 2**-_EXACT_SHIFT
_EXACT_SHIFT = 1074


class _ExactSum:
    """Floats summed exactly (as integer 2**-1074 units), read rounded once."""

    __slots__ = ("units", "nonfinite")

    def __init__(self) -> None:
        self.units, self.nonfinite = 0, 0.0  # the IEEE sum of inf/nan adds

    def add(self, v: float) -> None:
        v = float(v)
        if math.isfinite(v):
            n, d = v.as_integer_ratio()
            self.units += n << (_EXACT_SHIFT + 1 - d.bit_length())
        else:
            self.nonfinite += v

    def __float__(self) -> float:
        # an inf or nan increment absorbs any finite total
        return self.nonfinite or self.units / (1 << _EXACT_SHIFT)


class Counter:
    """A monotonically increasing total (float; byte counts welcome)."""

    __slots__ = ("name", "lock", "total")

    def __init__(self, name: str, lock=None):
        self.name = name
        #: guards every update (a registry lends its own re-entrant lock)
        self.lock = lock or threading.RLock()
        self.total = _ExactSum()

    def inc(self, n: float = 1.0) -> None:
        with self.lock:
            self.total.add(n)

    @property
    def value(self) -> float:
        return float(self.total)

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level (pool occupancy, pending units).

    Tracks the current level plus the high-water mark; only the
    high-water mark survives a merge (current levels of two finished
    processes are not meaningfully combinable).
    """

    __slots__ = ("name", "lock", "value", "max")

    def __init__(self, name: str, lock=None):
        self.name = name
        self.lock = lock or threading.RLock()
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        with self.lock:
            self.value = float(v)
            if v > self.max:
                self.max = float(v)

    def add(self, delta: float) -> None:
        with self.lock:
            self.set(self.value + delta)

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "max": self.max}


class Histogram:
    """Fixed-boundary histogram; parallel/sequential runs merge identically.

    ``boundaries`` are upper bounds of each bucket; one overflow bucket
    catches everything beyond the last boundary.  The boundaries are
    part of the metric's identity: observing into (or merging) a
    histogram with different boundaries is an error, never a silent
    re-bucketing.
    """

    __slots__ = (
        "name", "lock", "boundaries", "counts", "count", "total", "min", "max",
    )

    def __init__(
        self, name: str, boundaries: Sequence[float] = TIME_BUCKETS_S, lock=None,
    ):
        if list(boundaries) != sorted(boundaries):
            raise ValueError(f"histogram {name!r}: boundaries must be sorted")
        self.name = name
        self.lock = lock or threading.RLock()
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = _ExactSum()
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        v = float(v)
        lo, hi = 0, len(self.boundaries)
        while lo < hi:  # first boundary >= v (bisect, no import)
            mid = (lo + hi) // 2
            if self.boundaries[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        with self.lock:
            self.counts[lo] += 1
            self.count += 1
            self.total.add(v)
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    @property
    def sum(self) -> float:
        return float(self.total)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Name -> instrument table with get-or-create accessors."""

    def __init__(self) -> None:
        #: guards the table and, lent to each instrument, every update;
        #: re-entrant, since a merge holds it while it updates
        self._lock = threading.RLock()
        self._metrics: dict = {}

    # -- accessors --------------------------------------------------------
    def _get(self, name: str, factory):
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = self._metrics[name] = factory(name, self._lock)
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = TIME_BUCKETS_S
    ) -> Histogram:
        h = self._get(name, lambda n, lock: Histogram(n, boundaries, lock))
        if h.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} re-declared with different boundaries"
            )
        return h

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list:
        return sorted(self._metrics)

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument (sorted by name)."""
        with self._lock:
            return {name: self._metrics[name].as_dict() for name in self.names()}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one, exactly.

        Counters and histogram sums add exactly, gauges keep the max
        high-water mark, histograms add bucket counts (boundaries must
        agree).  Metrics present only in ``snap`` are created.  Holds
        the registry's lock, so no merge or bump is lost to another.
        """
        with self._lock:
            for name in sorted(snap):
                d = snap[name]
                kind = d.get("type")
                if kind == "counter":
                    self.counter(name).inc(d["value"])
                elif kind == "gauge":
                    g = self.gauge(name)
                    g.max = max(g.max, d.get("max", d["value"]))
                    g.value = max(g.value, d["value"])
                elif kind == "histogram":
                    h = self.histogram(name, d["boundaries"])
                    for i, n in enumerate(d["counts"]):
                        h.counts[i] += n
                    h.count += d["count"]
                    h.total.add(d["sum"])
                    if d["count"]:
                        h.min = min(h.min, d["min"])
                        h.max = max(h.max, d["max"])
                # an unknown instrument type is skipped rather than crash a run


#: the process-wide registry every instrumented layer reports into
_REGISTRY = MetricsRegistry()


def _fresh_registry_in_child() -> None:
    # another thread of the parent may hold the registry's lock across a
    # fork, and the child would wait on it forever: a forked child (a
    # pool worker) starts afresh, as its metrics only go home per attempt
    global _REGISTRY
    _REGISTRY = MetricsRegistry()


os.register_at_fork(after_in_child=_fresh_registry_in_child)


def registry() -> MetricsRegistry:
    return _REGISTRY


@contextlib.contextmanager
def use_registry(reg: Optional[MetricsRegistry] = None):
    """Swap in a fresh (or given) registry for the dynamic extent.

    Tests and the bench CLI use this to scope measurements to one run
    without inheriting counts from earlier work in the process.
    """
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = reg if reg is not None else MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = prev


# -- per-run snapshot files ------------------------------------------------
#: layout version of the on-disk snapshot document
SNAPSHOT_SCHEMA = 1


def snapshot_path(cache_dir, run_id: str) -> Path:
    """The snapshot file for one run under a sweep workdir."""
    return Path(cache_dir) / "metrics" / f"{run_id}.json"


def write_snapshot_file(cache_dir, run_id: str, snapshot: dict) -> Path:
    """Atomically persist a registry snapshot for out-of-process readers.

    The engine's and the daemon's heartbeats call this every beat with
    their own registry's snapshot, so a scraper (``repro.obs metrics``)
    always reads a complete, at-most-one-beat-old document — never a
    torn write (:func:`repro.durable.atomic_write`).
    """
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        "run_id": run_id,
        "unix": time.time(),
        "metrics": snapshot,
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    return durable.atomic_write(snapshot_path(cache_dir, run_id), text)


def load_snapshot_file(path) -> dict:
    """Read one snapshot document back; raises on schema mismatch."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path}: snapshot schema {doc.get('schema')!r} != {SNAPSHOT_SCHEMA}"
        )
    return doc


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, boundaries: Sequence[float] = TIME_BUCKETS_S) -> Histogram:
    return _REGISTRY.histogram(name, boundaries)
