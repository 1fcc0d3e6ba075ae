"""CLI: regenerate any figure/table of the paper.

Usage::

    python -m repro.experiments fig1 [fig3 ...] [--size small|default]
    python -m repro.experiments all --size default --jobs 4

Every experiment decomposes into independent work units (one per
benchmark x device x API x config) that are prewarmed through the
:mod:`repro.exec` sweep engine: ``--jobs N`` fans cold units out over N
worker processes, and results are memoized in a content-addressed cache
(``--cache-dir``, default ``$REPRO_CACHE_DIR`` or ``.repro-cache``) so
warm reruns skip simulation entirely.  Rendered reports go to stdout
and are byte-identical whatever mix of cache hits and parallel workers
produced them; timings and the sweep summary go to stderr.

Execution is fault-tolerant: a work unit that fails terminally (after
``--retries`` transient retries, or cut off by ``--timeout``) is
recorded as a ``FailedUnit`` and quarantined while the rest of the
sweep completes; an experiment whose units failed is reported and
skipped instead of aborting the run.  The failure table goes to stderr
and into ``--sweep-json``.

Exits: ``0`` clean, ``1`` when any shape check valid at the requested
size fails or any unit failure was *not* planted by the ``repro.faults``
chaos harness (injected failures are expected in chaos runs and do not
fail the build), and ``75`` (``EX_TEMPFAIL``) when a SIGINT/SIGTERM
drain left an experiment unfinished: the engine drains instead of
dying, the run journal records ``interrupted``, and rerunning with
``--resume`` picks up exactly the unfinished units.  A drain that
stranded nothing ends like an uninterrupted run.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .. import exec as rexec
from .. import telemetry
from ..errors import ReproError, SweepInterrupted
from ..exec import lifecycle
from ..telemetry import spans as tspans
from . import EXPERIMENTS

__all__ = ["main", "run_experiment", "collect_units", "build_executor"]


def run_experiment(name: str, size: str = "default"):
    try:
        mod = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return mod.run(size=size)


def collect_units(names, size: str) -> list:
    """Every work unit the named experiments will request, in order."""
    units = []
    for name in names:
        units += getattr(EXPERIMENTS[name], "units", lambda size: [])(size)
    return units


def add_sweep_arguments(ap: argparse.ArgumentParser) -> None:
    """The sweep-engine flags shared by the experiment-facing CLIs."""
    ap.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan cold work units out over N worker processes",
    )
    ap.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    ap.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    ap.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="cut any single work unit off after SEC wall-clock seconds",
    )
    ap.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry a unit up to N times on transient failures (default 2)",
    )
    ap.add_argument(
        "--sweep-report", action="store_true",
        help="print the per-unit timing + cache hit/miss table (stderr)",
    )
    ap.add_argument(
        "--sweep-json", default=None, metavar="FILE",
        help="write the sweep summary (per-unit timings, hit/miss) as JSON",
    )
    telemetry.add_telemetry_arguments(ap)


def build_executor(args, journal=None, resumed=None) -> rexec.SweepExecutor:
    cache = None
    if not args.no_cache:
        cache = args.cache_dir or rexec.default_cache_dir()
    ex = rexec.SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 2),
        progress=telemetry.progress_mode(args),
        journal=journal,
        resumed=resumed,
        grace=getattr(args, "grace", 30.0),
    )
    if resumed is not None and ex.cache is not None:
        # the previous run died; sweep its orphaned tmp files
        ex.cache.purge_tmp()
    return ex


def finish_sweep(args, executor: rexec.SweepExecutor) -> None:
    """Emit the sweep accounting the way the caller asked for it."""
    from ..telemetry import log

    st = executor.stats
    if st.records:
        log.info(
            "sweep.summary",
            f"sweep: {len(st.records)} unit requests, {st.hits} cache hits, "
            f"{st.misses} simulated ({st.sim_seconds:.1f}s simulation)",
        )
    if st.failures:
        from ..prof.report import render_failures

        injected = sum(1 for f in st.failures if f.injected)
        log.warn(
            "sweep.failures",
            f"sweep: {len(st.failures)} unit(s) failed terminally "
            f"({injected} injected)",
        )
        print(render_failures(st), file=sys.stderr)
    if args.sweep_report and st.records:
        from ..prof.report import render_sweep

        print(render_sweep(st), file=sys.stderr)
    if args.sweep_json:
        with open(args.sweep_json, "w") as f:
            json.dump(st.summary(), f, indent=2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures/tables of Fang et al., ICPP 2011",
    )
    ap.add_argument(
        "experiments",
        nargs="+",
        help=f"one or more of: {', '.join(EXPERIMENTS)}, or 'all'",
    )
    ap.add_argument("--size", default="default", choices=["small", "default"])
    add_sweep_arguments(ap)
    lifecycle.add_lifecycle_arguments(ap)
    args = ap.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
            )
    failures = 0
    aborted_unexpected = 0
    stranded = 0  # experiments a drain cut short
    tr = telemetry.start_run(args, "repro.experiments")
    cache_dir = (
        None if args.no_cache
        else (args.cache_dir or rexec.default_cache_dir())
    )
    journal, replay = lifecycle.open_journal(
        args, cache_dir, tr.trace_id, "repro.experiments", argv
    )
    ex = build_executor(args, journal=journal, resumed=replay)
    with rexec.use_executor(ex), tspans.use_tracer(tr), \
            lifecycle.GracefulShutdown(ex, grace=args.grace):
        ex.prewarm(collect_units(names, args.size))
        for name in names:
            # during a drain warm units keep serving; an experiment that
            # needs a cold one is cut short and left for --resume
            t0 = time.time()
            try:
                with tspans.span("experiment", "engine", experiment=name):
                    res = run_experiment(name, size=args.size)
            except SweepInterrupted as e:
                # drain began mid-experiment: its remaining cold units
                # are left for --resume
                print(f"({name}: interrupted: {e})", file=sys.stderr)
                stranded += 1
                continue
            except ReproError as e:
                # a work unit this experiment needs failed terminally;
                # report and move on — one bad unit must not kill the run
                injected = getattr(e, "injected", False)
                print(
                    f"({name}: aborted by failed work unit"
                    f"{' [injected]' if injected else ''}: {e})",
                    file=sys.stderr,
                )
                if not injected:
                    aborted_unexpected += 1
                continue
            print(res.render())
            print()
            print(f"({name}: {time.time() - t0:.1f}s)", file=sys.stderr)
            failures += len(res.failed_checks())
        finish_sweep(args, ex)
        unexpected = len(ex.stats.unexpected_failures())
    # a drain that stranded nothing ends like a clean run
    interrupted = stranded > 0
    state, code = lifecycle.run_outcome(
        interrupted, failures + unexpected + aborted_unexpected
    )
    if journal is not None:
        journal.close(state)
    if interrupted:
        tr.abandon("interrupted")
        print(
            f"run interrupted; resume with: --resume {tr.trace_id}",
            file=sys.stderr,
        )
    telemetry.finish_run(
        args, tr, "repro.experiments", executor=ex, cache_dir=cache_dir,
        lifecycle=lifecycle.lifecycle_summary(
            state, code, journal=journal, replay=replay, executor=ex
        ),
    )
    if failures:
        print(f"{failures} shape check(s) did not hold", file=sys.stderr)
    if unexpected or aborted_unexpected:
        print(
            f"{max(unexpected, aborted_unexpected)} non-injected unit "
            "failure(s)",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
