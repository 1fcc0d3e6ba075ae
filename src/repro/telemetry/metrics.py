"""Process-wide metrics registry: counters, gauges, histograms.

Every layer of the stack (engine, cache, fault injector, runtimes,
simulator) reports into one :class:`MetricsRegistry` so a run's
behaviour — cache hit ratio, retry counts, per-FailureKind totals,
launch-overhead distributions — is observable without grepping logs.

Two properties matter more than feature count:

* **Deterministic merge.**  Histograms use *fixed* bucket boundaries
  chosen at creation, so merging the registries of N pool workers adds
  bucket counts element-wise — the result is independent of merge
  order and of how units were scheduled.  Counters add; gauges merge
  by max (the only order-free choice that still answers "how high did
  it get?").  ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` by
  construction, which the hypothesis suite asserts.
* **Cheap when idle.**  A counter bump is a dict lookup and a float
  add; nothing allocates on the hot path after the first observation.

Worker processes carry their own registry (module-global state does
not cross ``fork``/``spawn`` usefully under the engine's ok/err payload
protocol); the engine ships each worker's :meth:`~MetricsRegistry
.snapshot` home in the payload and folds it into the parent with
:meth:`~MetricsRegistry.merge_snapshot`.
"""
from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    "metrics_dir",
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


class Counter:
    """A monotonically increasing total (float; byte counts welcome)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level (pool occupancy, pending units).

    Tracks the current level plus the high-water mark; only the
    high-water mark survives a merge (current levels of two finished
    processes are not meaningfully combinable).
    """

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)
        if v > self.max:
            self.max = float(v)

    def add(self, delta: float) -> None:
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

    __slots__ = ("name", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = TIME_BUCKETS_S):
        if list(boundaries) != sorted(boundaries):
            raise ValueError(f"histogram {name!r}: boundaries must be sorted")
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
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
        self.counts[lo] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

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
        self._lock = threading.Lock()
        self._metrics: dict = {}

    # -- accessors --------------------------------------------------------
    def _get(self, name: str, factory):
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = self._metrics[name] = factory(name)
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = TIME_BUCKETS_S
    ) -> Histogram:
        h = self._get(name, lambda n: Histogram(n, boundaries))
        if h.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} re-declared with different boundaries"
            )
        return h

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list:
        return sorted(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument (sorted by name)."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one, deterministically.

        Counters add, gauges keep the max high-water mark, histograms
        add bucket counts (boundaries must agree).  Metrics present only
        in ``snap`` are created.
        """
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
                if list(h.boundaries) != list(d["boundaries"]):
                    raise ValueError(
                        f"histogram {name!r}: boundary mismatch on merge"
                    )
                h.counts = [a + b for a, b in zip(h.counts, d["counts"])]
                h.count += d["count"]
                h.sum += d["sum"]
                if d["count"]:
                    h.min = min(h.min, d["min"])
                    h.max = max(h.max, d["max"])
            else:  # unknown instrument type: skip rather than crash a run
                continue

    def merge(self, others: Iterable["MetricsRegistry"]) -> None:
        for o in others:
            self.merge_snapshot(o.snapshot())


#: the process-wide registry every instrumented layer reports into
_REGISTRY = MetricsRegistry()


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


def metrics_dir(cache_dir) -> Path:
    """Where a sweep workdir keeps its per-run metrics snapshots."""
    return Path(cache_dir) / "metrics"


def snapshot_path(cache_dir, run_id: str) -> Path:
    """The snapshot file for one run under a sweep workdir."""
    return metrics_dir(cache_dir) / f"{run_id}.json"


def write_snapshot_file(
    cache_dir, run_id: str, snapshot: Optional[dict] = None
) -> Path:
    """Atomically persist a registry snapshot for out-of-process readers.

    The engine's heartbeat thread calls this every beat, so a scraper
    (``repro.obs metrics``) always reads a complete, at-most-one-beat-old
    document — never a torn write (:func:`repro.durable.atomic_write`).
    """
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        "run_id": run_id,
        "unix": time.time(),
        "metrics": snapshot if snapshot is not None else _REGISTRY.snapshot(),
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
