"""Sweep-as-a-service: a crash-safe daemon over the sweep engine.

``python -m repro.serve`` turns one sweep workdir into a long-running
service: submissions arrive over a local HTTP JSON API, are deduped by
content digest against the :class:`~repro.exec.cache.ResultCache`, and
dispatched through **leases with fencing tokens** journaled to a
durable queue WAL — so a ``kill -9`` of any worker *or of the daemon
itself* loses nothing and duplicates nothing.

The package splits along the same lines the guarantees do:

:mod:`repro.serve.wal`
    the durable queue (append-only fsynced JSONL + torn-tail-tolerant
    replay) — the single source of truth across crashes
:mod:`repro.serve.lease`
    fencing tokens, renewal, and the 3x-heartbeat staleness reclaim
:mod:`repro.serve.admission`
    per-tenant quotas (429), queue backpressure and per-device circuit
    breakers (503)
:mod:`repro.serve.worker`
    the long-lived forked worker: one lease at a time over a pipe, each
    outcome in the 0/1/75 classes of the exit-code contract
:mod:`repro.serve.daemon`
    the queue/dispatch core tying the above together
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
from .lease import Lease, LeaseManager, default_ttl
from .wal import QueueWAL, replay, serve_dir, wal_path
from .worker import worker_loop

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
    "Lease",
    "LeaseManager",
    "default_ttl",
    "QueueWAL",
    "replay",
    "serve_dir",
    "wal_path",
    "endpoint_path",
    "read_endpoint",
    "worker_loop",
]
