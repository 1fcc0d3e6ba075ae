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
import sys
import time

from ..errors import ReproError, SweepInterrupted
from ..exec import lifecycle
from ..telemetry import spans as tspans
from . import EXPERIMENTS

__all__ = ["main", "run_experiment", "collect_units"]


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
    lifecycle.add_sweep_arguments(ap)
    args = ap.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
            )
    failures = 0
    aborted_unexpected = 0
    with lifecycle.SweepRun(args, "repro.experiments", argv) as run:
        ex = run.executor
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
                run.stranded = True
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
        unexpected = len(ex.stats.unexpected_failures())
        run.failures = failures + unexpected + aborted_unexpected
    if failures:
        print(f"{failures} shape check(s) did not hold", file=sys.stderr)
    if unexpected or aborted_unexpected:
        print(
            f"{max(unexpected, aborted_unexpected)} non-injected unit "
            "failure(s)",
            file=sys.stderr,
        )
    return run.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
