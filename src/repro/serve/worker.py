"""The daemon's worker process: execute leased units, durably, one at a time.

Each dispatcher thread drives one long-lived forked worker running
:func:`worker_loop` over a duplex ``multiprocessing.Pipe``: one message
in per lease, one outcome message back.  A worker holds at most one
lease at a time and is deliberately *not* part of a shared
``ProcessPoolExecutor``, so a ``kill -9`` of one worker still has a
blast radius of exactly one lease (the engine needs crash-probing to
un-mix pool casualties; the daemon simply never mixes them).  The
daemon forks a replacement when it next needs one.

A lease message is ``(unit_dict, digest, attempt, timeout,
faults_spec)``; ``None`` (or EOF) tells the worker to exit.  The reply
is ``(code, err)`` in the same 0/1/75 classes as the sweep CLIs' exit
codes (:mod:`repro.exec.lifecycle`):

* ``0``  — the result is durably in the content-addressed cache
  (atomic fsynced put *before* replying, so the parent's ``done``
  record never outruns the data it vouches for);
* ``75`` — ``EX_TEMPFAIL``: a transient failure, re-dispatch me;
* ``1``  — terminal failure; ``err`` carries the classified
  kind/type/message/traceback/injected dict for the daemon to journal;
* no reply (EOF, or the process is gone) — the crash case the lease
  protocol exists for: the daemon reclaims the lease and re-dispatches
  under a fresh fencing token.

Fault injection crosses this boundary exactly as it crosses the
engine's pool boundary: the worker marks itself a pool worker (so
``kill`` rules ``os._exit`` instead of raising), builds each lease's
injector afresh from the spec, and fires ``postkill`` rules *after*
the cache put — the daemon-level chaos rule that dies mid-lease with
the work already durable.
"""
from __future__ import annotations

import ctypes
import gc
import os
import signal
import traceback
from typing import Optional

from .. import faults as faults_mod
from ..errors import FailureKind, classify, is_injected
from ..exec.cache import ResultCache, result_to_json
from ..exec.engine import _deadline
from ..exec.unit import execute, unit_from_dict

__all__ = ["worker_loop"]

#: outcome classes (the 0/1/75 exit-code contract)
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_TRANSIENT = 75

#: how often an idle worker checks that the daemon that forked it lives
_ORPHAN_CHECK_S = 1.0


def _run_lease(
    cache: ResultCache,
    unit_dict: dict,
    digest: str,
    attempt: int,
    timeout: Optional[float] = None,
    faults_spec=None,
) -> tuple:
    """Execute, store, (maybe) die: the ``(code, err)`` outcome of one lease."""
    unit = unit_from_dict(unit_dict)
    injector = faults_mod.from_spec(faults_spec)
    try:
        with _deadline(timeout):
            payload = result_to_json(execute(unit, attempt=attempt, faults=injector))
    except Exception as e:
        kind = classify(e)
        if kind is FailureKind.TRANSIENT:
            return EXIT_TRANSIENT, None
        return EXIT_FAILED, {
            "kind": kind.value,
            "type": type(e).__name__,
            "message": str(e),
            "traceback": traceback.format_exc(),
            "injected": is_injected(e),
        }
    # durable before reportable: the fsynced atomic put is what lets the
    # daemon's `done` record (and any post-crash redispatch) trust the entry
    cache.put(digest, payload)
    if injector is not None:
        injector.fire_post(unit.label(), attempt)
    return EXIT_OK, None


def worker_loop(conn, cache_dir: str) -> None:
    """Process entry point: serve lease messages from ``conn`` until told to stop."""
    faults_mod.mark_pool_worker()
    # SIGINT drains the daemon, not its workers; SIGTERM must not run the
    # daemon's inherited drain handler, so an orphan still dies of it
    for sig, action in ((signal.SIGINT, signal.SIG_IGN),
                        (signal.SIGTERM, signal.SIG_DFL)):
        try:
            signal.signal(sig, action)
        except (ValueError, OSError):
            pass
    daemon_pid = os.getppid()
    cache = ResultCache(cache_dir)
    # what the daemon had built is never garbage here: each lease's
    # collection below then walks only objects the worker made itself
    gc.freeze()
    # glibc's malloc_trim returns freed heap pages to the OS
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    while True:
        try:
            # sibling workers inherit each other's pipe ends, so EOF alone
            # cannot tell an orphan that its daemon died: watch the pid too
            while not conn.poll(_ORPHAN_CHECK_S):
                if os.getppid() != daemon_pid:
                    return
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            conn.send(_run_lease(cache, *msg))
        except OSError:
            return  # the daemon is gone; a result it vouched for is durable
        # a lease's cyclic garbage and freed heap would otherwise stack
        # under the next lease's peak: a long-lived worker's peak RSS is
        # what it retains plus the largest unit's working set
        gc.collect()
        if malloc_trim is not None:
            malloc_trim(0)
