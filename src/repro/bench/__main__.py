"""CLI: run the benchmark sweep and gate against the committed baseline.

    python -m repro.bench --size small --jobs 4
    python -m repro.bench --update-baseline      # refresh the baseline
    python -m repro.bench --compare BENCH_small.json   # re-gate a file

Writes ``BENCH_<tag>.json`` and exits 1 when any gated metric regresses
beyond its tolerance, 2 when no baseline exists to gate against.
"""
from __future__ import annotations

import argparse
import sys

from .. import telemetry
from ..telemetry import spans as tspans
from . import (
    compare,
    default_baseline_path,
    load_bench,
    make_payload,
    regressions,
    render_report,
    run_bench,
    write_bench,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the benchmark sweep and gate it against the baseline",
    )
    ap.add_argument("--size", default="small", choices=["small", "default"])
    ap.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan cold work units out over N worker processes",
    )
    ap.add_argument(
        "--tag", default=None, metavar="TAG",
        help="label for the output file (default: the --size value)",
    )
    ap.add_argument(
        "--experiments", nargs="*", default=None, metavar="NAME",
        help="restrict the sweep to these experiments (default: all)",
    )
    ap.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline to gate against (default: benchmarks/BENCH_baseline.json)",
    )
    ap.add_argument(
        "--output", default=None, metavar="FILE",
        help="where to write the result (default: BENCH_<tag>.json in cwd)",
    )
    ap.add_argument(
        "--update-baseline", action="store_true",
        help="write this run as the new baseline instead of gating",
    )
    ap.add_argument(
        "--compare", default=None, metavar="FILE",
        help="gate an existing BENCH_*.json instead of running the sweep",
    )
    telemetry.add_telemetry_arguments(ap)
    args = ap.parse_args(argv)

    tag = args.tag or args.size
    baseline_path = args.baseline or default_baseline_path()
    tr = telemetry.start_run(args, "repro.bench")

    if args.compare:
        current = load_bench(args.compare)
    else:
        with tspans.use_tracer(tr):
            values = run_bench(
                size=args.size,
                jobs=args.jobs,
                experiments=args.experiments,
                progress=telemetry.progress_mode(args),
            )
        current = make_payload(values, tag=tag, size=args.size, jobs=args.jobs)
        out = args.output or f"BENCH_{tag}.json"
        write_bench(current, out)
        print(f"bench: wrote {out}", file=sys.stderr)

    telemetry.finish_run(args, tr, "repro.bench")

    if args.update_baseline:
        write_bench(current, baseline_path)
        print(f"bench: baseline updated at {baseline_path}", file=sys.stderr)
        return 0

    try:
        baseline = load_bench(baseline_path)
    except OSError:
        print(
            f"bench: no baseline at {baseline_path}; run with "
            "--update-baseline to create one",
            file=sys.stderr,
        )
        return 2
    rows = compare(current, baseline)
    print(render_report(rows, tag=f"bench[{tag}] vs {baseline_path}"))
    return 1 if regressions(rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
