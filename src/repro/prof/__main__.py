"""CLI: profile a benchmark and emit an ASCII report + chrome trace.

Each benchmark runs once through :func:`repro.exec.unit.execute`.

Usage::

    python -m repro.prof BFS --device gtx480
    python -m repro.prof MD Sobel --device gtx280 --api opencl --size small
    python -m repro.prof FFT --device gtx480 --trace fft.trace.json
"""
from __future__ import annotations

import argparse
import sys

from ..benchsuite.registry import REGISTRY
from ..exec.unit import execute, make_unit
from .report import render_run
from .trace import write_chrome_trace

__all__ = ["main"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Per-launch profiling of a simulated benchmark run",
    )
    ap.add_argument("benchmarks", nargs="+", help="benchmark name(s), e.g. BFS MD FFT")
    ap.add_argument("--device", default="gtx480", help="device name (default: gtx480)")
    ap.add_argument(
        "--api", default="cuda", choices=["cuda", "opencl"], help="runtime to profile"
    )
    ap.add_argument("--size", default="small", choices=["small", "default"])
    ap.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="chrome-trace output path (default: <bench>.<device>.trace.json)",
    )
    ap.add_argument(
        "--no-trace", action="store_true", help="skip writing the trace JSON"
    )
    args = ap.parse_args(argv)

    by_lower = {k.lower(): k for k in REGISTRY}
    failures = 0
    for name in args.benchmarks:
        bench = by_lower.get(name.lower())
        if bench is None:
            ap.error(f"unknown benchmark {name!r}; available: {sorted(REGISTRY)}")
        try:
            unit = make_unit(bench, args.api, args.device, args.size)
        except KeyError as e:
            ap.error(str(e.args[0] if e.args else e))
        r = execute(unit)
        print(render_run(r.launches, title=f"{bench} [{args.size}]"))
        if not r.bench.ok():
            print(
                f"note: benchmark did not complete cleanly "
                f"({r.bench.failure or 'incorrect output'})"
            )
        violations = [
            f"launch {i}: {v}" for i, p in enumerate(r.launches) for v in p.check()
        ]
        if violations:
            failures += 1
            print("profiler invariant violations:", file=sys.stderr)
            for v in violations:
                print(f"  !! {v}", file=sys.stderr)
        else:
            print(f"profiler invariants: OK ({len(r.launches)} launches)")
        if not args.no_trace and r.launches:
            path = args.trace or f"{bench.lower()}.{unit.device.lower().replace('/', '')}.trace.json"
            if args.trace and len(args.benchmarks) > 1:
                # one trace per benchmark: suffix instead of overwriting
                stem = path[: -len(".json")] if path.endswith(".json") else path
                path = f"{stem}.{bench.lower()}.json"
            write_chrome_trace(
                r.launches, path, process_name=f"{bench} on {unit.device}"
            )
            print(f"chrome trace written to {path} (open in chrome://tracing)")
        print()
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
