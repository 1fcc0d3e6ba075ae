"""Shared CLI wiring for the telemetry layer.

Every repro CLI gets the same observability surface:
:func:`add_telemetry_arguments` (``--quiet/--verbose/--trace/...``),
:func:`start_run` (log verbosity and the run tracer) and
:func:`finish_run`, which closes the run span, writes the merged chrome
trace (``--trace``) and drops the end-of-run :class:`RunManifest` next
to the result cache (or wherever ``--manifest`` points).  The sweep
CLIs get all three through :class:`repro.exec.lifecycle.SweepRun`;
``python -m repro.bench`` calls them itself.
"""
from __future__ import annotations

import argparse
import os
import time
from typing import Optional

from . import log
from . import progress as progress_mod
from .export import write_trace
from .manifest import RunManifest, default_manifest_path
from .spans import Tracer

__all__ = [
    "add_telemetry_arguments", "start_run", "finish_run", "progress_mode",
]


def progress_mode(args) -> str:
    """The effective progress mode for parsed CLI args.

    ``--quiet`` wins over ``--progress`` (quiet means *quiet*), and CLIs
    written before the flag existed fall back to ``auto``.
    """
    if getattr(args, "quiet", False):
        return "off"
    return getattr(args, "progress", "auto")


def add_telemetry_arguments(ap: argparse.ArgumentParser) -> None:
    """The observability flags shared by every repro CLI."""
    g = ap.add_mutually_exclusive_group()
    g.add_argument(
        "--quiet", action="store_true",
        help="only warnings and errors on stderr; disables the progress meter",
    )
    g.add_argument(
        "--verbose", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    ap.add_argument(
        "--progress", default="auto", choices=list(progress_mod.MODES),
        help="sweep progress reporting: 'auto' renders a live line on a "
             "TTY and nothing otherwise, 'plain' prints periodic progress "
             "lines even when stderr is redirected (CI logs), 'off' "
             "disables it (--quiet implies off)",
    )
    ap.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the merged run timeline (engine, cache, pool workers, "
             "simulated kernels) as chrome://tracing JSON",
    )
    ap.add_argument(
        "--events", default=None, metavar="FILE",
        help="stream raw span/instant events to FILE as JSONL while running",
    )
    ap.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="run-manifest path (default: <cache-dir>/manifests/<run-id>.json)",
    )
    ap.add_argument(
        "--no-manifest", action="store_true",
        help="skip writing the end-of-run manifest",
    )


def start_run(args, command: str) -> Tracer:
    """Set log verbosity from the parsed args and open the run tracer."""
    log.set_verbosity(
        quiet=getattr(args, "quiet", False),
        verbose=getattr(args, "verbose", False),
    )
    short = command.rsplit(".", 1)[-1]
    run_id = f"{short}-{os.getpid()}-{int(time.time())}"
    return Tracer(run_id=run_id, jsonl_path=getattr(args, "events", None))


def finish_run(
    args,
    tr: Tracer,
    command: str,
    executor=None,
    cache_dir: Optional[str] = None,
    lifecycle: Optional[dict] = None,
):
    """Close the run span; emit trace + manifest as the flags ask.

    Returns the manifest path, or None when no manifest was written
    (``--no-manifest``, or cache disabled with no explicit path to
    write to).
    """
    tr.finish()
    trace_path = getattr(args, "trace", None)
    if trace_path:
        write_trace(tr.events, trace_path, process_name=command)
        log.info(
            "telemetry.trace",
            f"wrote {len(tr.events)} events to {trace_path}",
        )
    if getattr(args, "no_manifest", False):
        return None
    path = getattr(args, "manifest", None)
    if path is None:
        if cache_dir is None:
            return None
        path = default_manifest_path(cache_dir, tr.trace_id)
    sweep = executor.stats.summary() if executor is not None else {}
    man = RunManifest.collect(
        command, run_id=tr.trace_id, sweep=sweep, lifecycle=lifecycle
    )
    out = man.write(path)
    log.debug("telemetry.manifest", f"run manifest written to {out}")
    return out
