"""Sweep-as-a-service: a crash-safe daemon over the sweep engine.

``python -m repro.serve`` turns one sweep workdir into a long-running
service: submissions arrive over a local HTTP JSON API, are deduped by
content digest against the :class:`~repro.exec.cache.ResultCache`, and
dispatched as **leases** journaled to a durable queue WAL — so a
``kill -9`` of any worker *or of the daemon itself* loses nothing and
duplicates nothing.

The package splits along the same lines the guarantees do:

:mod:`repro.serve.wal`
    the durable queue (append-only fsynced JSONL + torn-tail-tolerant
    replay) — the single source of truth across crashes
:mod:`repro.serve.admission`
    per-tenant quotas (429), queue backpressure and per-device circuit
    breakers (503)
:mod:`repro.serve.daemon`
    the queue tying the above together around the dispatch core it
    shares with the sweep engine (:mod:`repro.exec.dispatch`: warm
    forked workers, one lease each at a time, outcomes in the 0/1/75
    classes of the exit-code contract); a lease is one dispatcher
    thread's job, requeued from the WAL if the daemon dies holding it
:mod:`repro.serve.api` / :mod:`repro.serve.client`
    the loopback HTTP surface and its tiny stdlib client
"""
from __future__ import annotations

from .admission import (
    AdmissionVerdict,
    BreakerBoard,
    CircuitBreaker,
    TenantQuota,
)
from .api import ServeAPI, endpoint_path, read_endpoint
from .client import ServeClient, ServeError, discover
from .daemon import SweepDaemon
from .wal import QueueWAL, replay, serve_dir, wal_path

__all__ = [
    "SweepDaemon",
    "ServeAPI",
    "ServeClient",
    "ServeError",
    "discover",
    "TenantQuota",
    "AdmissionVerdict",
    "CircuitBreaker",
    "BreakerBoard",
    "QueueWAL",
    "replay",
    "serve_dir",
    "wal_path",
    "endpoint_path",
    "read_endpoint",
]
