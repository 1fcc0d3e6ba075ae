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
import sys

from .. import exec as rexec
from .. import telemetry
from ..arch.specs import ALL_DEVICES
from ..errors import SweepInterrupted, UnitFailed
from ..exec import lifecycle
from ..telemetry import spans as tspans
from .registry import REAL_WORLD, REGISTRY, SYNTHETIC


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.benchsuite",
        description="Run Table II benchmarks on the simulated devices",
    )
    ap.add_argument("names", nargs="*", help=f"benchmarks: {', '.join(REGISTRY)}")
    ap.add_argument("--all", action="store_true", help="run every benchmark")
    ap.add_argument("--device", default="GTX480", choices=sorted(ALL_DEVICES))
    ap.add_argument("--api", default="both", choices=["cuda", "opencl", "both"])
    ap.add_argument("--size", default="default", choices=["small", "default"])
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
    lifecycle.add_lifecycle_arguments(ap)
    telemetry.add_telemetry_arguments(ap)
    args = ap.parse_args(argv)

    names = (SYNTHETIC + REAL_WORLD) if args.all else args.names
    if not names:
        ap.error("give benchmark names or --all")
    spec = ALL_DEVICES[args.device]
    apis = ["cuda", "opencl"] if args.api == "both" else [args.api]
    if "cuda" in apis and not spec.supports_cuda():
        print(f"note: {spec.name} is not CUDA-capable; running OpenCL only")
        apis = ["opencl"]

    cache = None if args.no_cache else (args.cache_dir or rexec.default_cache_dir())
    tr = telemetry.start_run(args, "repro.benchsuite")
    journal, replay = lifecycle.open_journal(
        args, cache, tr.trace_id, "repro.benchsuite", argv
    )
    executor = rexec.SweepExecutor(
        jobs=args.jobs, cache=cache, timeout=args.timeout,
        retries=args.retries, progress=telemetry.progress_mode(args),
        journal=journal, resumed=replay, grace=args.grace,
    )
    if replay is not None and executor.cache is not None:
        executor.cache.purge_tmp()
    units = [
        rexec.make_unit(name, api, spec, args.size)
        for name in names
        for api in apis
    ]

    print(f"{'benchmark':10s} {'api':7s} {'value':>12s} {'unit':14s} "
          f"{'kernel':>10s} {'status':6s}")
    print("-" * 66)
    rc = 0
    stranded = 0  # units or variant checks a drain left undone
    results = []
    with rexec.use_executor(executor), tspans.use_tracer(tr), \
            lifecycle.GracefulShutdown(executor, grace=args.grace):
        executor.prewarm(units)
        for unit in units:
            try:
                ur = executor.run_unit(unit)
            except UnitFailed as e:
                # terminal engine failure (crash/timeout/...): one row,
                # not a dead CLI — the remaining units still run
                rc = 1
                print(
                    f"{unit.benchmark:10s} {unit.api:7s} {'-':>12s} {'-':14s} "
                    f"{'-':>10s} {e.kind.value:6s}"
                )
                continue
            except SweepInterrupted:
                # draining: this unit is cold and stays that way;
                # --resume will simulate it
                stranded += 1
                print(
                    f"{unit.benchmark:10s} {unit.api:7s} {'-':>12s} {'-':14s} "
                    f"{'-':>10s} {'INT':6s}"
                )
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
            print(
                f"{unit.benchmark:10s} {unit.api:7s} {val:>12s} {r.unit:14s} "
                f"{kern:>10s} {status:6s}"
            )
        checks = []
        if args.variants or args.check_variants:
            for unit in units:
                try:
                    checks.extend(rexec.check_unit_variants(executor, unit))
                except UnitFailed:
                    rc = 1  # baseline itself died; nothing to compare against
                except SweepInterrupted:
                    stranded += 1
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
    # a drain that stranded nothing ends like a clean run
    interrupted = stranded > 0
    state, code = lifecycle.run_outcome(interrupted, rc)
    if journal is not None:
        journal.close(state)
    if interrupted:
        tr.abandon("interrupted")
        print(
            f"run interrupted; resume with: --resume {tr.trace_id}",
            file=sys.stderr,
        )
    elif args.results_json:
        # only a *complete* run writes the canonical artifact: a partial
        # document must never masquerade as the sweep's results
        with open(args.results_json, "w") as f:
            f.write(rexec.canonical_results_json(results))
    if args.variant_manifest and not interrupted:
        with open(args.variant_manifest, "w") as f:
            f.write(rexec.variant_manifest(checks))
    telemetry.finish_run(
        args, tr, "repro.benchsuite", executor=executor, cache_dir=cache,
        lifecycle=lifecycle.lifecycle_summary(
            state, code, journal=journal, replay=replay, executor=executor
        ),
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
