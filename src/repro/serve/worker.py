"""The daemon's worker process: execute one leased unit, durably.

Each lease gets its own ``multiprocessing.Process`` running
:func:`worker_main` — deliberately *not* a shared
``ProcessPoolExecutor``, so a ``kill -9`` of one worker has a blast
radius of exactly one lease (the engine needs crash-probing to
un-mix pool casualties; the daemon simply never mixes them).

The worker speaks the same 0/1/75 exit-code contract as the sweep
CLIs (:mod:`repro.exec.lifecycle`):

* ``0``  — the result is durably in the content-addressed cache
  (atomic fsynced put *before* exiting, so the parent's ``done``
  record never outruns the data it vouches for);
* ``75`` — ``EX_TEMPFAIL``: a transient failure, re-dispatch me;
* ``1``  — terminal failure; a JSON *errfile* next to the WAL carries
  the classified kind/message/traceback for the daemon to journal;
* death by signal (negative ``exitcode``) — the crash case the lease
  protocol exists for: the daemon reclaims the lease and re-dispatches
  under a fresh fencing token.

Fault injection crosses this boundary exactly as it crosses the
engine's pool boundary: the worker marks itself a pool worker (so
``kill`` rules ``os._exit`` instead of raising) and fires
``postkill`` rules *after* the cache put — the daemon-level chaos
rule that dies mid-lease with the work already durable.
"""
from __future__ import annotations

import json
import os
import signal
import traceback
from pathlib import Path
from typing import Optional

from .. import durable
from .. import faults as faults_mod
from ..errors import FailureKind, classify, is_injected
from ..exec.cache import ResultCache, result_to_json
from ..exec.engine import _deadline
from ..exec.unit import execute, unit_from_dict
from .wal import serve_dir

__all__ = ["worker_main", "errfile_path", "read_errfile"]

#: worker exit codes (the 0/1/75 contract, plus the signal-death cases
#: the OS reports as negative exitcodes)
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_TRANSIENT = 75


def errfile_path(cache_dir, token: int) -> Path:
    """Where a failing worker leaves its structured error report."""
    return serve_dir(cache_dir) / "err" / f"{token}.json"


def read_errfile(cache_dir, token: int) -> Optional[dict]:
    """Consume (read + unlink) a worker's errfile, if it left one."""
    path = errfile_path(cache_dir, token)
    try:
        with open(path) as f:
            err = json.load(f)
    except (OSError, ValueError):
        return None
    try:
        os.unlink(path)
    except OSError:
        pass
    return err


def _write_errfile(cache_dir, token: int, err: dict) -> None:
    try:
        durable.atomic_write(errfile_path(cache_dir, token), json.dumps(err))
    except OSError:
        pass  # the daemon falls back to a generic CRASH classification


def worker_main(
    unit_dict: dict,
    cache_dir: str,
    digest: str,
    token: int,
    attempt: int,
    timeout: Optional[float] = None,
    faults_spec=None,
) -> None:
    """Process entry point: execute, store, (maybe) die, report via exit code."""
    faults_mod.mark_pool_worker()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    unit = unit_from_dict(unit_dict)
    injector = faults_mod.from_spec(faults_spec)
    try:
        with _deadline(timeout):
            payload = result_to_json(execute(unit, attempt=attempt, faults=injector))
    except Exception as e:
        kind = classify(e)
        if kind is FailureKind.TRANSIENT:
            os._exit(EXIT_TRANSIENT)
        _write_errfile(
            cache_dir, token,
            {
                "kind": kind.value,
                "type": type(e).__name__,
                "message": str(e),
                "traceback": traceback.format_exc(),
                "injected": is_injected(e),
            },
        )
        os._exit(EXIT_FAILED)
    # durable before reportable: the fsynced atomic put is what lets the
    # daemon's `done` record (and any post-crash redispatch) trust the entry
    ResultCache(cache_dir).put(digest, payload)
    if injector is not None:
        injector.fire_post(unit.label(), attempt)
    os._exit(EXIT_OK)
