"""repro.bench — the continuous-benchmark regression gate.

``python -m repro.bench`` runs the small sweep cold (fresh cache) and
warm (second pass over the same cache), snapshots the telemetry
metrics, and writes ``BENCH_<tag>.json`` — one point of the repo's
perf trajectory.  Against a committed baseline it compares every
gated metric within a per-metric tolerance and exits non-zero on
regression.

What gets gated is chosen for cross-machine stability: the simulator
runs on a *virtual* clock, so simulated kernel seconds, launch counts,
launch-overhead totals, DRAM traffic, and warp-instruction counts are
bit-stable across hosts, job counts, and scheduling — any drift means
the model (or the harness) changed, which is exactly what the gate is
for.  Wall-clock numbers (cold/warm sweep seconds) are recorded with
``tolerance: null``: informational trend data, never a CI failure.
"""
from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Optional

from .. import durable
from .._version import __version__
from ..telemetry import metrics as tmetrics
from ..telemetry import spans as tspans
from ..telemetry.manifest import git_sha

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_TOLERANCES",
    "run_bench",
    "compare",
    "render_report",
    "write_bench",
    "load_bench",
    "default_baseline_path",
    "HISTORY_SCHEMA",
    "default_history_path",
    "history_record",
    "append_history",
    "load_history",
]

SCHEMA_VERSION = 1

#: layout version of one BENCH_history.jsonl record
HISTORY_SCHEMA = 1

#: gated metric -> relative tolerance.  The virtual-clock metrics are
#: deterministic, so the tolerance only absorbs float summation noise;
#: ``None`` marks informational (never-failing) wall-clock metrics.
DEFAULT_TOLERANCES = {
    "units.total": 0.0,
    "units.failed": 0.0,
    "sim.launches": 0.0,
    "sim.kernel_seconds": 0.01,
    "sim.dram_bytes": 0.01,
    "sim.warp_instructions": 0.01,
    "launch.cuda.count": 0.0,
    "launch.cuda.overhead_s": 0.01,
    "launch.opencl.count": 0.0,
    "launch.opencl.overhead_s": 0.01,
    "wall.cold_s": None,
    "wall.warm_s": None,
}


def default_baseline_path() -> Path:
    """The committed baseline: ``benchmarks/BENCH_baseline.json``."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_baseline.json"


def _counter_value(snap: dict, name: str) -> float:
    m = snap.get(name)
    return float(m["value"]) if m else 0.0


def _hist_sum(snap: dict, name: str) -> float:
    m = snap.get(name)
    return float(m["sum"]) if m else 0.0


def run_bench(
    size: str = "small",
    jobs: int = 1,
    experiments=None,
    progress="off",
) -> dict:
    """Run the sweep cold + warm and return ``{metric: value}``.

    Runs in a throwaway cache directory and a fresh metrics registry so
    the numbers are scoped to this run regardless of ambient state.
    The active tracer (if any) sees the whole thing as two spans,
    ``bench.cold`` and ``bench.warm``.
    """
    from .. import exec as rexec
    from ..experiments import EXPERIMENTS
    from ..experiments.runner import collect_units

    names = list(experiments) if experiments else list(EXPERIMENTS)
    units = collect_units(names, size)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir, \
            tmetrics.use_registry() as reg:
        with tspans.span("bench.cold", "engine", units=len(units), jobs=jobs):
            t0 = time.perf_counter()
            ex = rexec.SweepExecutor(
                jobs=jobs, cache=cache_dir, progress=progress,
                adaptive_jobs=True,
            )
            with rexec.use_executor(ex):
                ex.prewarm(units)
            cold_s = time.perf_counter() - t0
        with tspans.span("bench.warm", "engine", units=len(units)):
            t0 = time.perf_counter()
            ex2 = rexec.SweepExecutor(
                jobs=jobs, cache=cache_dir, progress=progress,
                adaptive_jobs=True,
            )
            with rexec.use_executor(ex2):
                ex2.prewarm(units)
            warm_s = time.perf_counter() - t0
        snap = reg.snapshot()
        failed = len(ex.stats.failures)
    return {
        "units.total": float(len(units)),
        "units.failed": float(failed),
        "sim.launches": _counter_value(snap, "sim.launches"),
        "sim.kernel_seconds": _hist_sum(snap, "sim.kernel_s"),
        "sim.dram_bytes": _counter_value(snap, "sim.dram_bytes"),
        "sim.warp_instructions": _counter_value(snap, "sim.warp_instructions"),
        "launch.cuda.count": _counter_value(snap, "runtime.cuda.launches"),
        "launch.cuda.overhead_s": _counter_value(
            snap, "runtime.cuda.launch_overhead_s"
        ),
        "launch.opencl.count": _counter_value(snap, "runtime.opencl.launches"),
        "launch.opencl.overhead_s": _counter_value(
            snap, "runtime.opencl.launch_overhead_s"
        ),
        "wall.cold_s": cold_s,
        "wall.warm_s": warm_s,
    }


def make_payload(
    values: dict,
    tag: str,
    size: str,
    jobs: int,
    tolerances: Optional[dict] = None,
) -> dict:
    """The ``BENCH_<tag>.json`` document for a finished run."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    return {
        "schema": SCHEMA_VERSION,
        "tag": tag,
        "size": size,
        "jobs": jobs,
        "version": __version__,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "metrics": {
            name: {"value": values[name], "tolerance": tol.get(name)}
            for name in sorted(values)
        },
    }


def write_bench(payload: dict, path) -> Path:
    return durable.atomic_write(
        path, json.dumps(payload, indent=1, sort_keys=True)
    )


def load_bench(path) -> dict:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return payload


# -- bench history ---------------------------------------------------------
def default_history_path() -> Path:
    """The committed trajectory: ``benchmarks/BENCH_history.jsonl``."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_history.jsonl"


def history_record(payload: dict) -> dict:
    """One append-only trajectory point, slimmed from a bench payload.

    Metrics flatten to plain ``{name: value}`` (tolerances live with
    the baseline, not the trajectory) so a record stays one short line
    and ``repro.obs regress --history`` can diff any two points.
    """
    return {
        "schema": HISTORY_SCHEMA,
        "tag": payload.get("tag"),
        "size": payload.get("size"),
        "jobs": payload.get("jobs"),
        "version": payload.get("version"),
        "git_sha": payload.get("git_sha"),
        "created_unix": payload.get("created_unix"),
        "metrics": {
            name: m["value"] for name, m in sorted(
                (payload.get("metrics") or {}).items()
            )
        },
    }


def append_history(payload: dict, path=None) -> Path:
    """Append one bench run to the trajectory file (JSONL, one line)."""
    path = Path(path) if path is not None else default_history_path()
    with durable.Log(path) as history:
        history.append(history_record(payload))
    return path


def load_history(path=None) -> list:
    """Every parseable trajectory record, in file order.

    Torn or foreign-schema lines are skipped, never fatal — the file is
    appended by many CI runs and a truncated tail must not break the
    tooling reading it.
    """
    path = Path(path) if path is not None else default_history_path()
    try:
        records, _ = durable.replay(path)
    except OSError:
        return []
    return [r for r in records if r.get("schema") == HISTORY_SCHEMA]


def compare(current: dict, baseline: dict) -> list:
    """Compare two bench payloads; one row dict per baseline metric.

    Row statuses: ``ok`` (within tolerance), ``regression`` (outside
    tolerance, both directions — for deterministic metrics *any* drift
    means behaviour changed), ``info`` (tolerance is null), ``missing``
    (metric vanished from the current run; fails the gate).
    """
    cur = current.get("metrics", {})
    rows = []
    for name in sorted(baseline.get("metrics", {})):
        base = baseline["metrics"][name]
        tol = base.get("tolerance")
        b = float(base["value"])
        if name not in cur:
            rows.append(
                {"metric": name, "baseline": b, "current": None,
                 "tolerance": tol, "status": "missing", "delta": None}
            )
            continue
        c = float(cur[name]["value"])
        delta = c - b
        if tol is None:
            status = "info"
        else:
            # relative band around the baseline, with an absolute floor
            # so a zero baseline still tolerates float dust
            allowed = tol * max(abs(b), 1.0) + 1e-9
            status = "ok" if abs(delta) <= allowed else "regression"
        rows.append(
            {"metric": name, "baseline": b, "current": c,
             "tolerance": tol, "status": status, "delta": delta}
        )
    return rows


def regressions(rows) -> list:
    return [r for r in rows if r["status"] in ("regression", "missing")]


def _fmt(v) -> str:
    if v is None:
        return "-"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def render_report(rows, tag: str = "bench") -> str:
    """ASCII gate report in the house table style."""
    width = max([len(r["metric"]) for r in rows] + [10])
    head = (
        f"{'metric':<{width}} {'baseline':>14} {'current':>14} "
        f"{'tol':>6} {'status':>10}"
    )
    bad = len(regressions(rows))
    lines = [
        f"== {tag}: {len(rows)} gated metric(s), {bad} regression(s) ==",
        head,
        "-" * len(head),
    ]
    for r in rows:
        tol = "-" if r["tolerance"] is None else f"{r['tolerance']:.0%}"
        lines.append(
            f"{r['metric']:<{width}} {_fmt(r['baseline']):>14} "
            f"{_fmt(r['current']):>14} {tol:>6} {r['status']:>10}"
        )
    return "\n".join(lines)
