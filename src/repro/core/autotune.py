"""Parameter auto-tuner — the paper's proposed future work (§VI).

"We would like to develop an auto-tuner to adapt general-purpose OpenCL
programs to all available specific platforms."  This is a small,
honest version of that: exhaustive search over user-supplied discrete
parameter axes (work-group size, unroll factors, optimization toggles),
scoring each configuration by the benchmark's own metric on the target
device.  Every candidate is a :class:`~repro.exec.unit.WorkUnit` served
by the active executor, so candidates share the sweep's memo and cache,
fan out over its ``--jobs`` and fail one row at a time; deterministic
simulation makes the search exactly reproducible.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

from .. import exec as rexec
from ..arch.specs import DeviceSpec
from ..benchsuite.registry import get_benchmark
from ..errors import UnitFailed

__all__ = ["TuneResult", "autotune"]


@dataclasses.dataclass(frozen=True)
class TuneResult:
    benchmark: str
    device: str
    api: str
    best_options: dict
    best_value: float
    unit: str
    #: every evaluated point: (options, value or None on failure)
    trace: tuple


def autotune(
    benchmark,
    spec: DeviceSpec,
    axes: Mapping[str, Sequence],
    api: str = "opencl",
    size: str = "small",
) -> TuneResult:
    """Exhaustively tune ``axes`` (option name -> candidate values).

    ``spec`` names a registered device.  A candidate that fails (a run
    error, or a result that is not ok) scores ``None`` in the trace.
    ``trace`` and ``best_options`` keep the caller's option spelling,
    defaults included.
    """
    bench = get_benchmark(benchmark if isinstance(benchmark, str) else benchmark.name)
    names = sorted(axes)
    candidates = [
        dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))
    ]
    units = [rexec.make_unit(bench.name, api, spec, size, opts) for opts in candidates]
    executor = rexec.active()
    executor.prewarm(units)
    trace = []
    for opts, unit in zip(candidates, units):
        try:
            res = executor.run_unit(unit).bench
        except UnitFailed:
            res = None
        trace.append((opts, res.value if res is not None and res.ok() else None))
    scored = [(opts, v) for opts, v in trace if v is not None]
    if not scored:
        raise RuntimeError(
            f"no working configuration found for {bench.name} on {spec.name}"
        )
    sign = 1 if bench.metric.higher_is_better else -1
    best_opts, best_val = max(scored, key=lambda ov: sign * ov[1])
    return TuneResult(
        benchmark=bench.name,
        device=spec.name,
        api=api,
        best_options=best_opts,
        best_value=best_val,
        unit=bench.metric.unit,
        trace=tuple(trace),
    )
