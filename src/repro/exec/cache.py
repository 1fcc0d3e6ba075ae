"""Content-addressed on-disk result cache for sweep work units.

Layout: ``<root>/<digest[:2]>/<digest>.json``, one JSON payload per
unit.  Writes are atomic (:func:`repro.durable.atomic_write`) so parallel
workers and concurrent sweeps can share one cache directory safely.

Serialization is also the normalization layer: the engine round-trips
*every* result — fresh or cached — through :func:`result_to_json` /
:func:`result_from_json`, so a cache hit is byte-identical to a fresh
simulation by construction (the property ``tests/exec`` asserts).

Loads are defensive: every entry is schema-versioned and validated by
:func:`validate_payload` before it is served.  An entry that fails to
parse or validate — a torn write, a stale format, a hand-edited file —
is treated as a cache *miss* and moved to ``<root>/quarantine/`` (with
a ``.reason`` sidecar) instead of crashing the sweep.
"""
from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional

from .. import durable
from ..arch.caches import CacheStats
from ..benchsuite.base import BenchResult
from ..errors import CacheCorruptionError
from ..prof.profile import LaunchProfile
from ..telemetry import log, metrics
from ..telemetry import spans as tspans
from .unit import UnitResult, WorkUnit, _plain, unit_from_dict, unit_to_dict

__all__ = [
    "ResultCache",
    "result_to_json",
    "result_from_json",
    "canonical_payload",
    "canonical_results_json",
    "validate_payload",
    "default_cache_dir",
    "SCHEMA_VERSION",
]

#: bump whenever the payload layout OR the numeric semantics producing
#: it change; mismatched entries are quarantined rather than
#: misinterpreted (v3: operand-width shift masking + unclamped SFU
#: specials changed simulated results)
SCHEMA_VERSION = 3

_REQUIRED_KEYS = frozenset({"schema", "unit", "bench", "profile", "seconds"})
_UNIT_KEYS = frozenset(f.name for f in dataclasses.fields(WorkUnit))


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` when set, else ``.repro-cache`` in the cwd."""
    return os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"


def _bench_to_json(b: BenchResult) -> dict:
    return {f.name: _plain(getattr(b, f.name)) for f in dataclasses.fields(b)}


def _bench_from_json(d: dict) -> BenchResult:
    return BenchResult(**d)


def _profile_to_json(p: Optional[LaunchProfile]) -> Optional[dict]:
    if p is None:
        return None
    out = {}
    for f in dataclasses.fields(p):
        v = getattr(p, f.name)
        if f.name == "caches":
            v = {k: [st.hits, st.misses] for k, st in v.items()}
        out[f.name] = _plain(v)
    return out


def _profile_from_json(d: Optional[dict]) -> Optional[LaunchProfile]:
    if d is None:
        return None
    d = dict(d)
    d["grid"] = tuple(d["grid"])
    d["block"] = tuple(d["block"])
    d["caches"] = {k: CacheStats(h, m) for k, (h, m) in d["caches"].items()}
    return LaunchProfile(**d)


def validate_payload(payload) -> None:
    """Reject malformed-but-parseable payloads before they are served.

    Raises :class:`~repro.errors.CacheCorruptionError`; the cache maps
    that to miss-and-quarantine, so ``result_from_json`` only ever sees
    payloads with the full required shape.
    """
    if not isinstance(payload, dict):
        raise CacheCorruptionError(
            f"payload is {type(payload).__name__}, not an object"
        )
    missing = _REQUIRED_KEYS - payload.keys()
    if missing:
        raise CacheCorruptionError(f"missing keys: {sorted(missing)}")
    if payload["schema"] != SCHEMA_VERSION:
        raise CacheCorruptionError(
            f"schema version {payload['schema']!r} != {SCHEMA_VERSION}"
        )
    unit = payload["unit"]
    if not isinstance(unit, dict) or _UNIT_KEYS - unit.keys():
        raise CacheCorruptionError("unit block malformed")
    if not isinstance(payload["bench"], dict):
        raise CacheCorruptionError("bench block malformed")
    if not isinstance(payload["seconds"], (int, float)):
        raise CacheCorruptionError("seconds is not a number")


def result_to_json(ur: UnitResult) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "unit": unit_to_dict(ur.unit),
        "bench": _bench_to_json(ur.bench),
        "profile": _profile_to_json(ur.profile),
        "seconds": float(ur.seconds),
    }


def result_from_json(payload: dict, cached: bool = False) -> UnitResult:
    validate_payload(payload)
    return UnitResult(
        unit=unit_from_dict(payload["unit"]),
        bench=_bench_from_json(payload["bench"]),
        profile=_profile_from_json(payload["profile"]),
        seconds=payload["seconds"],
        cached=cached,
    )


def canonical_payload(payload: dict) -> dict:
    """A copy of ``payload`` with its wall-clock fields zeroed.

    Everything in a unit result is virtual-clock deterministic *except*
    ``seconds`` (host wall time of the simulation) and the profile's
    ``compile_s`` (front-end wall time).  Zeroing exactly those two
    makes results comparable byte-for-byte across independent runs —
    the contract the resume acceptance test holds the journal to.
    """
    out = json.loads(json.dumps(payload))
    out["seconds"] = 0.0
    if isinstance(out.get("profile"), dict):
        out["profile"]["compile_s"] = 0.0
    return out


def canonical_results_json(results) -> str:
    """Render a sweep's results as a deterministic JSON document.

    Sorted by unit identity, wall-clock fields zeroed, stable key
    order: two runs that computed the same results — cold, warm,
    parallel, or interrupted-then-resumed — produce identical bytes.
    """
    rows = [canonical_payload(result_to_json(r)) for r in results]
    rows.sort(key=lambda p: json.dumps(p["unit"], sort_keys=True))
    doc = {"schema": SCHEMA_VERSION, "results": rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class ResultCache:
    """A content-addressed directory of unit results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: optional :class:`~repro.exec.engine.SweepStats` hookup so the
        #: owning sweep's report can show quarantine counts directly
        self.stats = None

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def path_for(self, digest: str) -> Path:
        """Where the entry for ``digest`` lives (whether or not it exists)."""
        return self._path(digest)

    def get(self, digest: str) -> Optional[dict]:
        path = self._path(digest)
        with tspans.span("cache.get", "cache", digest=digest[:8]):
            try:
                with open(path) as f:
                    payload = json.load(f)
            except OSError:
                metrics.counter("cache.disk.misses").inc()
                return None
            except ValueError as e:
                self.quarantine(digest, f"unparseable JSON: {e}")
                metrics.counter("cache.disk.misses").inc()
                return None
            try:
                validate_payload(payload)
            except CacheCorruptionError as e:
                self.quarantine(digest, str(e))
                metrics.counter("cache.disk.misses").inc()
                return None
            metrics.counter("cache.disk.hits").inc()
            return payload

    def quarantine(self, digest: str, reason: str) -> Optional[Path]:
        """Move a corrupt entry to ``<root>/quarantine/`` (miss, not crash).

        The entry is preserved for post-mortem next to a ``.reason``
        sidecar; the next lookup of the digest is a clean miss and the
        re-simulated result overwrites nothing in quarantine.
        """
        src = self._path(digest)
        dst_dir = self.root / "quarantine"
        dst = dst_dir / src.name
        try:
            dst_dir.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)
            dst.with_suffix(".reason").write_text(reason + "\n")
        except OSError:
            return None
        metrics.counter("cache.quarantined").inc()
        if self.stats is not None:
            self.stats.quarantined += 1
        tspans.event(
            "cache.quarantine", "cache", entry=src.name, reason=reason
        )
        log.warn(
            "cache.quarantine",
            f"quarantined corrupt cache entry {src.name} ({reason})",
        )
        return dst

    def put(self, digest: str, payload: dict) -> None:
        """Atomically and durably install one entry.

        A reader never sees a torn entry, and a process killed mid-write
        leaves only a tmp file for :meth:`purge_tmp`.  Durability before
        the rename is what lets the run journal's ``done`` record trust
        the entry across a crash.
        """
        with tspans.span("cache.put", "cache", digest=digest[:8]):
            durable.atomic_write(self._path(digest), json.dumps(payload))
            metrics.counter("cache.puts").inc()

    def purge_tmp(self) -> int:
        """Remove tmp files orphaned by killed writers; returns the count.

        Safe against live writers in *this* process (their tmp names
        carry this pid); concurrent sweeps in other processes write and
        rename fast enough that a stale tmp is overwhelmingly a corpse.
        """
        removed = 0
        for tmp in durable.tmp_corpses(self.root, "[0-9a-f][0-9a-f]/*.tmp.*"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            metrics.counter("cache.tmp_purged").inc(removed)
            log.info(
                "cache.purge_tmp",
                f"removed {removed} orphaned tmp file(s) from {self.root}",
            )
        return removed

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        # two-hex-digit shards only: quarantined entries don't count
        return sum(1 for _ in self.root.glob("[0-9a-f][0-9a-f]/*.json"))
