"""Run a benchmark under one runtime and collect its launch profiles.

The simulator records a :class:`~repro.prof.profile.LaunchProfile` for
every launch (``SimDevice.profiles``); this module runs a benchmark
through the normal host path and hands back the per-launch records plus
the benchmark's own result — the entry point behind
``python -m repro.prof``.
"""
from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from ..arch.specs import ALL_DEVICES, DeviceSpec
from ..benchsuite.base import BenchResult, host_for
from ..benchsuite.registry import REGISTRY, get_benchmark
from .profile import LaunchProfile, aggregate

__all__ = [
    "BenchmarkProfile",
    "profile_benchmark",
    "resolve_device",
]


def resolve_device(name_or_spec) -> DeviceSpec:
    """Device lookup tolerant of CLI spellings (``gtx480``, ``GTX480``)."""
    if isinstance(name_or_spec, DeviceSpec):
        return name_or_spec
    want = str(name_or_spec).lower().replace("-", "").replace("_", "")
    for name, spec in ALL_DEVICES.items():
        if name.lower().replace("/", "").replace("-", "") == want.replace("/", ""):
            return spec
    raise KeyError(
        f"unknown device {name_or_spec!r}; available: {sorted(ALL_DEVICES)}"
    )


@dataclasses.dataclass
class BenchmarkProfile:
    """One benchmark run's worth of profiling evidence."""

    benchmark: str
    api: str
    device: str
    result: BenchResult
    launches: list  # list[LaunchProfile]

    @property
    def summary(self) -> Optional[LaunchProfile]:
        return aggregate(self.launches, label=self.benchmark)

    def check(self) -> list:
        out = []
        for i, p in enumerate(self.launches):
            out += [f"launch {i}: {v}" for v in p.check()]
        return out


def profile_benchmark(
    name: str,
    device,
    api: str = "cuda",
    size: str = "small",
    options: Optional[Mapping] = None,
) -> BenchmarkProfile:
    """Run benchmark ``name`` once under ``api`` and collect profiles."""
    spec = resolve_device(device)
    canonical = {k.lower(): k for k in REGISTRY}.get(name.lower(), name)
    bench = get_benchmark(canonical)
    host = host_for(api, spec)
    result = bench.run(host, size=size, options=options)
    return BenchmarkProfile(
        benchmark=bench.name,
        api=api,
        device=spec.name,
        result=result,
        launches=list(host.sim.profiles),
    )
