"""CUDA runtime API over the simulated device.

Mirrors the CUDA runtime surface the paper's benchmarks use:
``cudaMalloc``/``cudaMemcpy``/kernel launch with ``<<<grid, block>>>``
configuration, and event-based timing.  All host-visible time is a
*virtual clock*: device work, transfers, and launch overheads advance
``CudaContext.now`` deterministically, so measurements are exactly
reproducible.
"""
from __future__ import annotations

import dataclasses
import math
import time
from typing import Mapping, Optional

import numpy as np

from ...arch.specs import DeviceSpec, GTX480
from ...errors import ReproError
from ...kir.stmt import Kernel as KirKernel
from ...kir.types import Scalar, sizeof
from ...prof.profile import LaunchProfile
from ...ptx.module import PTXKernel
from ...sim.device import LaunchFailure, LaunchResult, SimDevice, dim3
from ..overhead import (
    compile_for,
    count_launch,
    cuda_launch_overhead_s,
    stamp_profile,
)

__all__ = ["CudaContext", "CudaFunction", "CudaEvent", "DevicePointer", "CudaError"]


class CudaError(ReproError):
    """A CUDA runtime error; carries the structured ``code`` when the
    underlying failure had one (e.g. a launch-time resource rejection)."""


@dataclasses.dataclass(frozen=True)
class DevicePointer:
    base: int
    nbytes: int
    elem: Scalar


@dataclasses.dataclass
class CudaEvent:
    """``cudaEvent_t``: a timestamp on the virtual timeline."""

    time_s: Optional[float] = None

    def elapsed_since(self, other: "CudaEvent") -> float:
        if self.time_s is None or other.time_s is None:
            raise CudaError("event not recorded")
        return self.time_s - other.time_s


class CudaFunction:
    """A compiled ``__global__`` function."""

    def __init__(
        self,
        ctx: "CudaContext",
        ptx: PTXKernel,
        source: KirKernel,
        compile_s: float = 0.0,
    ):
        self.ctx = ctx
        self.ptx = ptx
        self.source = source
        #: front-end compile wall time (a LaunchProfile host phase)
        self.compile_s = compile_s

    @property
    def name(self) -> str:
        return self.ptx.name

    def launch(self, grid, block, **args) -> LaunchResult:
        return self.ctx.launch(self, grid, block, args)


class CudaContext:
    """One host process talking to one CUDA device."""

    def __init__(self, spec: DeviceSpec = GTX480):
        if not spec.supports_cuda():
            raise CudaError(
                f"device {spec.name} is not CUDA-capable "
                "(CUDA is NVIDIA-only; that asymmetry is the paper's point)"
            )
        self.spec = spec
        self.device = SimDevice(spec)
        self.now = 0.0  # virtual host clock, seconds
        self.launch_count = 0

    # -- memory ------------------------------------------------------------
    def malloc(self, count: int, elem: Scalar = Scalar.F32) -> DevicePointer:
        nbytes = count * sizeof(elem)
        return DevicePointer(self.device.alloc(nbytes), nbytes, elem)

    def free(self, ptr: DevicePointer) -> None:
        self.device.free(ptr.base, ptr.nbytes)

    def memcpy_htod(self, ptr: DevicePointer, host: np.ndarray) -> None:
        if host.nbytes > ptr.nbytes:
            raise CudaError("htod copy larger than allocation")
        self.now += self.device.upload(ptr.base, host)

    def memcpy_dtoh(self, ptr: DevicePointer, count: Optional[int] = None) -> np.ndarray:
        count = count if count is not None else ptr.nbytes // sizeof(ptr.elem)
        arr, dt = self.device.download(ptr.base, count, ptr.elem)
        self.now += dt
        return arr

    # -- compilation ---------------------------------------------------------
    def compile(self, kernel: KirKernel) -> CudaFunction:
        t0 = time.perf_counter()
        ptx = compile_for("cuda", kernel, self.spec)
        return CudaFunction(self, ptx, kernel, time.perf_counter() - t0)

    # -- execution ------------------------------------------------------------
    def launch(self, fn: CudaFunction, grid, block, args: Mapping) -> LaunchResult:
        prepared = {
            k: (v.base if isinstance(v, DevicePointer) else v)
            for k, v in args.items()
        }
        try:
            res = self.device.launch(fn.ptx, grid, block, prepared)
        except LaunchFailure as e:
            raise CudaError(str(e), code=e.code) from e
        overhead = cuda_launch_overhead_s(
            math.prod(dim3(grid)) * math.prod(dim3(block))
        )
        count_launch("cuda", overhead)
        stamp_profile(res, "cuda", fn.compile_s, overhead, self.now)
        self.now += overhead + res.kernel_seconds
        self.launch_count += 1
        return res

    # -- events ------------------------------------------------------------
    def event_record(self) -> CudaEvent:
        return CudaEvent(self.now)

    def synchronize(self) -> None:
        """No-op: the virtual clock is already consistent."""

    # -- profiling ----------------------------------------------------------
    def profile_query(self) -> Optional[LaunchProfile]:
        """The last launch's profile (CUPTI-style counter readout)."""
        return self.device.profiles[-1] if self.device.profiles else None

    @property
    def profiles(self) -> list:
        """Every launch profile recorded on this context's device."""
        return self.device.profiles
