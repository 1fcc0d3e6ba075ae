"""OpenCL runtime over the simulated devices.

Implements the object model the paper's OpenCL benchmarks exercise:
platforms -> devices -> context -> command queue -> program (built with
preprocessor defines) -> kernel -> ND-range enqueue with profiling
events.  Three platforms are registered, matching the paper's testbeds:

* "NVIDIA CUDA"  — GTX480, GTX280 (GPU devices)
* "AMD APP"      — HD5870 (GPU) and Intel920 (CPU; the paper used APP
  v2.2 because Intel's Linux OpenCL was unavailable)
* "IBM OpenCL"   — Cell/BE (ACCELERATOR device)

Build-time defines matter: SDK-derived kernels bake ``WARP_SIZE`` in at
compile time, and AMD's headers define it from the device's wavefront
width (64) while the host-side layout assumed 32 — the mechanism behind
the "FL" entries of Table VI.
"""
from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ...arch.specs import (
    CELLBE,
    DeviceSpec,
    GTX280,
    GTX480,
    HD5870,
    INTEL920,
)
from ...errors import ReproError
from ...kir.stmt import Kernel as KirKernel
from ...kir.types import Scalar, sizeof
from ...prof.profile import LaunchProfile
from ...ptx.module import PTXKernel
from ...sim.device import LaunchFailure, SimDevice, dim3
from ..overhead import (
    compile_for,
    count_launch,
    opencl_launch_overhead_s,
    stamp_profile,
)

__all__ = [
    "CLError",
    "DeviceType",
    "Platform",
    "Device",
    "Context",
    "CommandQueue",
    "Buffer",
    "Program",
    "Kernel",
    "Event",
    "get_platforms",
    "create_context_for",
]


class CLError(ReproError):
    """An OpenCL status code, typed into the ``repro.errors`` taxonomy.

    ``code`` is the structured ``CL_*`` status; ``repro.errors.classify``
    maps resource codes onto Table VI's "ABT" without string matching.
    """

    def __init__(self, code: str, message: str = ""):
        super().__init__(
            f"{code}{': ' + message if message else ''}", code=code
        )


class DeviceType:
    GPU = "CL_DEVICE_TYPE_GPU"
    CPU = "CL_DEVICE_TYPE_CPU"
    ACCELERATOR = "CL_DEVICE_TYPE_ACCELERATOR"
    ALL = "CL_DEVICE_TYPE_ALL"


_TYPE_OF = {"gpu": DeviceType.GPU, "cpu": DeviceType.CPU, "accelerator": DeviceType.ACCELERATOR}


class Device:
    """An OpenCL device: a spec plus its simulated hardware."""

    def __init__(self, spec: DeviceSpec, platform: "Platform"):
        self.spec = spec
        self.platform = platform
        self.sim = SimDevice(spec)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def device_type(self) -> str:
        return _TYPE_OF[self.spec.device_type]

    # the queries benchmarks use
    @property
    def max_work_group_size(self) -> int:
        return self.spec.max_threads_per_block

    @property
    def local_mem_size(self) -> int:
        return self.spec.max_shared_per_block

    @property
    def warp_size(self) -> int:
        """CL_NV_warp_size / AMD wavefront width."""
        return self.spec.warp_width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Device {self.name} ({self.device_type})>"


class Platform:
    def __init__(self, name: str, vendor: str, specs: Sequence[DeviceSpec]):
        self.name = name
        self.vendor = vendor
        self._devices = [Device(s, self) for s in specs]

    def get_devices(self, device_type: str = DeviceType.ALL) -> list:
        if device_type == DeviceType.ALL:
            return list(self._devices)
        out = [d for d in self._devices if d.device_type == device_type]
        if not out:
            raise CLError("CL_DEVICE_NOT_FOUND", f"no {device_type} on {self.name}")
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Platform {self.name}>"


def get_platforms() -> list:
    """The installed platforms of the paper's three testbeds."""
    return [
        Platform("NVIDIA CUDA", "NVIDIA Corporation", [GTX480, GTX280]),
        Platform("AMD Accelerated Parallel Processing", "AMD", [HD5870, INTEL920]),
        Platform("IBM OpenCL", "IBM", [CELLBE]),
    ]


class Context:
    def __init__(self, devices: Sequence[Device]):
        if not devices:
            raise CLError("CL_INVALID_VALUE", "context needs at least one device")
        self.devices = list(devices)

    @property
    def device(self) -> Device:
        return self.devices[0]


def create_context_for(name: str) -> Context:
    """Convenience: a context on the named device (any platform)."""
    for p in get_platforms():
        for d in p.get_devices():
            if d.name == name:
                return Context([d])
    raise CLError("CL_DEVICE_NOT_FOUND", name)


@dataclasses.dataclass
class Buffer:
    context: Context
    base: int
    nbytes: int
    elem: Scalar = Scalar.F32

    @classmethod
    def create(cls, context: Context, count: int, elem: Scalar = Scalar.F32) -> "Buffer":
        nbytes = count * sizeof(elem)
        return cls(context, context.device.sim.alloc(nbytes), nbytes, elem)

    def release(self) -> None:
        self.context.device.sim.free(self.base, self.nbytes)


@dataclasses.dataclass
class Event:
    """Profiling event: CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}."""

    queued_s: float = 0.0
    submit_s: float = 0.0
    start_s: float = 0.0
    end_s: float = 0.0
    #: per-launch counter record (kernel events only; the simulated
    #: analogue of a vendor profiling extension)
    profile: Optional["LaunchProfile"] = None

    @property
    def kernel_seconds(self) -> float:
        return self.end_s - self.start_s

    @property
    def launch_latency_seconds(self) -> float:
        """Queue entry -> execution start (the paper's 'kernel launch time')."""
        return self.start_s - self.queued_s

    def get_profiling_info(self, param: str) -> int:
        """``clGetEventProfilingInfo``: virtual timestamps in nanoseconds."""
        times = {
            "CL_PROFILING_COMMAND_QUEUED": self.queued_s,
            "CL_PROFILING_COMMAND_SUBMIT": self.submit_s,
            "CL_PROFILING_COMMAND_START": self.start_s,
            "CL_PROFILING_COMMAND_END": self.end_s,
        }
        try:
            return int(round(times[param] * 1e9))
        except KeyError:
            raise CLError("CL_INVALID_VALUE", param) from None


SourceFn = Callable[[Mapping[str, int]], Sequence[KirKernel]]


class Program:
    """An OpenCL program: kernel sources + a build step.

    ``source`` is either a list of IR kernels or a factory taking the
    build defines (``-D`` macros) and returning kernels — SDK code builds
    with ``-DWARP_SIZE=...`` style options, and the value it receives is
    part of the Table VI story.
    """

    def __init__(self, context: Context, source: Union[Sequence[KirKernel], SourceFn]):
        self.context = context
        self._source = source
        self._built: Optional[dict] = None
        self.build_log: list = []
        self.build_s = 0.0

    def build(self, defines: Optional[Mapping[str, int]] = None) -> "Program":
        t0 = time.perf_counter()
        defines = dict(defines or {})
        kernels = (
            list(self._source(defines))
            if callable(self._source)
            else list(self._source)
        )
        device = self.context.device
        built = {}
        for k in kernels:
            if k.dialect != "opencl":
                raise CLError(
                    "CL_BUILD_PROGRAM_FAILURE",
                    f"kernel {k.name!r} is not OpenCL C",
                )
            ptx = compile_for("opencl", k, device.spec)
            ptx.defines = dict(defines)
            built[k.name] = (ptx, k)
            if device.spec.architecture == "cell":
                # the paper's §V remark: IBM's implementation restricts
                # builtins inside inline definitions; surface as warnings
                from ...kir.visit import any_expr
                from ...kir.expr import UnOp

                if any_expr(k.body, lambda e: isinstance(e, UnOp) and e.op in ("sin", "cos")):
                    self.build_log.append(
                        f"{k.name}: warning: trigonometric builtins inside "
                        "inlined helpers are unsupported on this device"
                    )
        self._built = built
        #: clBuildProgram wall time, amortized per kernel when profiling
        self.build_s = time.perf_counter() - t0
        return self

    def kernel(self, name: str) -> "Kernel":
        if self._built is None:
            raise CLError("CL_INVALID_PROGRAM_EXECUTABLE", "program not built")
        if name not in self._built:
            raise CLError("CL_INVALID_KERNEL_NAME", name)
        ptx, src = self._built[name]
        return Kernel(self, name, ptx, src)


class Kernel:
    def __init__(self, program: Program, name: str, ptx: PTXKernel, source: KirKernel):
        self.program = program
        self.name = name
        self.ptx = ptx
        self.source = source
        self._args: dict = {}

    def set_arg(self, name: str, value) -> None:
        self._args[name] = value

    def set_args(self, **kwargs) -> "Kernel":
        self._args.update(kwargs)
        return self


class CommandQueue:
    """In-order command queue with profiling enabled."""

    def __init__(self, context: Context, device: Optional[Device] = None):
        self.context = context
        self.device = device or context.device
        self.now = 0.0
        self.launch_count = 0

    # -- transfers ----------------------------------------------------------
    def enqueue_write_buffer(self, buf: Buffer, host: np.ndarray) -> Event:
        if host.nbytes > buf.nbytes:
            raise CLError("CL_INVALID_VALUE", "write larger than buffer")
        t0 = self.now
        dt = self.device.sim.upload(buf.base, host)
        self.now += dt
        return Event(t0, t0, t0, self.now)

    def enqueue_read_buffer(self, buf: Buffer, count: Optional[int] = None) -> tuple:
        count = count if count is not None else buf.nbytes // sizeof(buf.elem)
        t0 = self.now
        arr, dt = self.device.sim.download(buf.base, count, buf.elem)
        self.now += dt
        return arr, Event(t0, t0, t0, self.now)

    # -- kernel execution ------------------------------------------------------
    def enqueue_nd_range(
        self,
        kernel: Kernel,
        global_size,
        local_size,
    ) -> Event:
        """``clEnqueueNDRangeKernel``.

        OpenCL semantics: ``global_size`` counts *work-items* (NDRange),
        not blocks — one of the paper's §IV-B.1 programming-model
        differences vs CUDA's GridDim.
        """
        gs, ls = dim3(global_size), dim3(local_size)
        for g, l in zip(gs, ls):
            if l <= 0 or g % l:
                raise CLError(
                    "CL_INVALID_WORK_GROUP_SIZE",
                    f"global {gs} not divisible by local {ls}",
                )
        grid = tuple(g // l for g, l in zip(gs, ls))

        args = {
            k: (v.base if isinstance(v, Buffer) else v)
            for k, v in kernel._args.items()
        }
        queued = self.now
        overhead = opencl_launch_overhead_s(math.prod(gs))
        count_launch("opencl", overhead)
        try:
            res = self.device.sim.launch(kernel.ptx, grid, ls, args)
        except LaunchFailure as e:
            raise CLError(e.code, f"kernel {kernel.name!r}") from e
        start, end = stamp_profile(
            res, "opencl", kernel.program.build_s, overhead, queued
        )
        self.now = end
        self.launch_count += 1
        return Event(
            queued_s=queued,
            submit_s=queued,
            start_s=start,
            end_s=end,
            profile=res.profile,
        )

    def finish(self) -> None:
        """No-op: the virtual clock is already consistent."""
