"""Pairwise CUDA/OpenCL comparison runner.

Runs one benchmark through both runtimes on one device and produces a
:class:`~repro.core.metrics.PRResult` plus the fairness audit of the two
configurations — the machine that generates Fig. 3's bars.
"""
from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from ..arch.specs import DeviceSpec
from ..benchsuite.base import Benchmark
from ..benchsuite.registry import get_benchmark
from ..kir.dialect import CUDA, OPENCL
from .fairness import ComparisonConfig, audit, describe
from .metrics import PRResult

__all__ = ["ComparisonOutcome", "compare", "compare_many"]


@dataclasses.dataclass
class ComparisonOutcome:
    pr: PRResult
    fairness: list  # FairnessFinding items (empty = fair comparison)
    cuda_config: ComparisonConfig
    opencl_config: ComparisonConfig
    #: aggregated per-launch profiles of the two runs (repro.prof); None
    #: when the run recorded no launches (build failure etc.)
    cuda_profile: object = None
    opencl_profile: object = None

    @property
    def fair(self) -> bool:
        from .fairness import Role

        return not [f for f in self.fairness if f.role is not Role.COMPILER]


def compare(
    benchmark,
    spec: DeviceSpec,
    size: str = "default",
    cuda_options: Optional[Mapping] = None,
    opencl_options: Optional[Mapping] = None,
) -> ComparisonOutcome:
    """Run ``benchmark`` under both APIs on ``spec`` and compute the PR.

    ``cuda_options``/``opencl_options`` override the benchmark's
    per-dialect defaults — the knob the paper turns when it equalizes
    texture memory, constant memory, or unroll pragmas to make a
    comparison fair.
    """
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    assert isinstance(benchmark, Benchmark)

    from ..exec import make_unit, run_unit

    cuda_unit = run_unit(make_unit(benchmark.name, "cuda", spec, size, cuda_options))
    opencl_unit = run_unit(
        make_unit(benchmark.name, "opencl", spec, size, opencl_options)
    )
    cuda_res, cuda_prof = cuda_unit.bench, cuda_unit.profile
    opencl_res, opencl_prof = opencl_unit.bench, opencl_unit.profile

    params, c_opts, _ = benchmark.build_inputs(CUDA, spec, size, cuda_options)
    _, o_opts, _ = benchmark.build_inputs(OPENCL, spec, size, opencl_options)
    wg = c_opts.get("wg", "default")
    c_cfg = describe(benchmark.name, "cuda", spec.name, c_opts, params, wg)
    o_cfg = describe(benchmark.name, "opencl", spec.name, o_opts, params, wg)

    return ComparisonOutcome(
        pr=PRResult.from_pair(cuda_res, opencl_res, benchmark.metric),
        fairness=audit(c_cfg, o_cfg),
        cuda_config=c_cfg,
        opencl_config=o_cfg,
        cuda_profile=cuda_prof,
        opencl_profile=opencl_prof,
    )


def compare_many(
    names, specs, size: str = "default"
) -> dict:
    """PR matrix over benchmarks x devices: {(name, device): outcome}."""
    out = {}
    for name in names:
        for spec in specs:
            out[(name, spec.name)] = compare(name, spec, size=size)
    return out
