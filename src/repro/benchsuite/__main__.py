"""CLI: run benchmarks directly.

    python -m repro.benchsuite Sobel FFT --device GTX280 --api both
    python -m repro.benchsuite --all --device GTX480 --size small --jobs 4

Runs go through the :mod:`repro.exec` sweep engine: each (benchmark,
api) pair is one work unit, cold units fan out over ``--jobs`` worker
processes, and results are memoized in the content-addressed cache
(disable with ``--no-cache``).

The run is crash-safe: a journal under the cache dir records every
unit start/finish, SIGINT/SIGTERM drain gracefully (exit 75 =
resumable, when the drain left units undone), and ``--resume`` reruns
only what the interrupted run did not finish.  ``--results-json``
writes a canonical, wall-clock-free result document that is
byte-identical however the results were obtained (cold, warm,
parallel, or interrupted-then-resumed).
"""
from __future__ import annotations

import argparse

from .. import exec as rexec
from ..errors import SweepInterrupted, UnitFailed
from ..exec import lifecycle


def _row(bench, api, value, unit, kernel, status) -> None:
    print(f"{bench:10s} {api:7s} {value:>12s} {unit:14s} {kernel:>10s} {status:6s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.benchsuite",
        description="Run Table II benchmarks on the simulated devices",
    )
    lifecycle.add_selection_arguments(ap, "run")
    ap.add_argument(
        "--results-json", default=None, metavar="FILE",
        help="write all results as canonical JSON (deterministic bytes; "
        "skipped when the run is interrupted)",
    )
    ap.add_argument(
        "--variants", action="store_true",
        help="also generate and run every legal rewrite-rule variant of "
        "each benchmark's kernels (repro.kir.rewrite), comparing each "
        "variant's output to its baseline",
    )
    ap.add_argument(
        "--check-variants", action="store_true",
        help="like --variants, but any semantics-preservation violation "
        "(variant output differs from baseline) fails the run",
    )
    ap.add_argument(
        "--variant-manifest", default=None, metavar="FILE",
        help="write the variant differential results as a JSON artifact",
    )
    lifecycle.add_sweep_arguments(ap, report=False)
    args = ap.parse_args(argv)
    units = lifecycle.select_units(ap, args, "running")

    rc = 0
    results = []
    checks = []
    with lifecycle.SweepRun(args, "repro.benchsuite", argv) as run:
        executor = run.executor
        _row("benchmark", "api", "value", "unit", "kernel", "status")
        print("-" * 66)
        executor.prewarm(units)
        for unit in units:
            try:
                ur = executor.run_unit(unit)
            except UnitFailed as e:
                # terminal engine failure (crash/timeout/...): one row,
                # not a dead CLI — the remaining units still run
                rc = 1
                _row(unit.benchmark, unit.api, "-", "-", "-", e.kind.value)
                continue
            except SweepInterrupted:
                # draining: this unit is cold and stays that way;
                # --resume will simulate it
                run.stranded = True
                _row(unit.benchmark, unit.api, "-", "-", "-", "INT")
                continue
            results.append(ur)
            r = ur.bench
            status = "ok" if r.ok() else (r.failure or "FL")
            if not r.ok():
                rc = 1
            kern = "-" if r.kernel_seconds != r.kernel_seconds else (
                f"{r.kernel_seconds * 1e6:.1f}us"
            )
            val = "-" if r.value != r.value else f"{r.value:.4g}"
            _row(unit.benchmark, unit.api, val, r.unit, kern, status)
        if args.variants or args.check_variants:
            for unit in units:
                try:
                    checks.extend(rexec.check_unit_variants(executor, unit))
                except UnitFailed:
                    rc = 1  # baseline itself died; nothing to compare against
                except SweepInterrupted:
                    run.stranded = True
                    break
            if checks:
                bad = sum(c.violation for c in checks)
                print(f"\nvariants ({len(checks)} checked, {bad} violations):")
                print(rexec.render_checks(checks))
                if bad and args.check_variants:
                    rc = 1
        if executor.stats.failures:
            from ..prof.report import render_failures

            print(render_failures(executor.stats))
        run.failures = rc
    # only a *complete* run writes its artifacts: a partial document
    # must never masquerade as the sweep's results
    if not run.stranded and args.results_json:
        with open(args.results_json, "w") as f:
            f.write(rexec.canonical_results_json(results))
    if not run.stranded and args.variant_manifest:
        with open(args.variant_manifest, "w") as f:
            f.write(rexec.variant_manifest(checks))
    return run.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
