"""Benchmark infrastructure: host-API adapters and the benchmark base.

The paper's fairness methodology (§IV-C, step 3) requires the CUDA and
OpenCL versions of a benchmark to use "similar APIs to access the same
type of hardware resources" and the same timers.  We enforce that
structurally: each benchmark writes its host logic *once* against
:class:`HostAPI`; the two adapters map it onto the CUDA runtime and the
OpenCL runtime.  Differences that remain — kernel dialect, front-end
compiler, launch overheads, texture/constant-memory availability — are
exactly the differences the paper studies.
"""
from __future__ import annotations

import abc
import dataclasses
from typing import Mapping, Optional, Sequence

import numpy as np

from ..arch.specs import DeviceSpec
from ..errors import FailureKind, classify
from ..kir.dialect import CUDA, Dialect, OPENCL
from ..kir.stmt import Kernel as KirKernel
from ..kir.types import Scalar
from ..runtime.cuda.api import CudaContext, CudaError
from ..runtime.opencl import api as cl
from ..sim.device import SimDevice, dim3

__all__ = [
    "HostAPI",
    "CudaHost",
    "OpenCLHost",
    "host_for",
    "Benchmark",
    "BenchResult",
    "Metric",
]


@dataclasses.dataclass(frozen=True)
class Metric:
    """A benchmark's performance metric (Table II column 4)."""

    unit: str
    higher_is_better: bool = True


@dataclasses.dataclass
class BenchResult:
    benchmark: str
    api: str  # "cuda" | "opencl"
    device: str
    value: float  # in Metric.unit
    unit: str
    kernel_seconds: float
    wall_seconds: float
    launches: int
    correct: bool
    failure: Optional[str] = None  # "ABT" / "FL" / error code
    detail: dict = dataclasses.field(default_factory=dict)

    def ok(self) -> bool:
        return self.failure is None and self.correct


class HostAPI(abc.ABC):
    """Uniform host-side surface over the two runtimes."""

    api_name: str
    dialect: Dialect

    @property
    @abc.abstractmethod
    def spec(self) -> DeviceSpec: ...

    @abc.abstractmethod
    def build(self, kernels: Sequence[KirKernel], defines: Optional[Mapping] = None) -> None:
        """Compile kernels for this device (step 5/6 of the flow)."""

    @abc.abstractmethod
    def alloc(self, count: int, elem: Scalar = Scalar.F32): ...

    @abc.abstractmethod
    def write(self, buf, host: np.ndarray) -> None: ...

    @abc.abstractmethod
    def read(self, buf, count: int) -> np.ndarray: ...

    @abc.abstractmethod
    def launch(self, name: str, global_threads, wg, **args) -> float:
        """Run a kernel over ``global_threads`` work-items grouped in
        ``wg``-sized groups; returns the device-side kernel seconds."""

    @abc.abstractmethod
    def now(self) -> float:
        """Virtual host clock (for end-to-end timings)."""

    #: the simulated device behind the runtime
    sim: SimDevice

    @property
    @abc.abstractmethod
    def launch_count(self) -> int:
        """Kernels launched so far (the runtime's own count)."""

    def reset_clock(self) -> None:
        self._t0 = self.now()

    def elapsed(self) -> float:
        return self.now() - getattr(self, "_t0", 0.0)


class CudaHost(HostAPI):
    api_name = "cuda"
    dialect = CUDA

    def __init__(self, spec: DeviceSpec):
        self.ctx = CudaContext(spec)
        self.sim = self.ctx.device
        self.fns: dict = {}

    @property
    def spec(self) -> DeviceSpec:
        return self.ctx.spec

    @property
    def launch_count(self) -> int:
        return self.ctx.launch_count

    def build(self, kernels, defines=None) -> None:
        for k in kernels:
            self.fns[k.name] = self.ctx.compile(k)

    def alloc(self, count, elem=Scalar.F32):
        return self.ctx.malloc(count, elem)

    def write(self, buf, host) -> None:
        self.ctx.memcpy_htod(buf, host)

    def read(self, buf, count) -> np.ndarray:
        return self.ctx.memcpy_dtoh(buf, count)

    def launch(self, name, global_threads, wg, **args) -> float:
        g, l = dim3(global_threads), dim3(wg)
        grid = tuple(-(-gi // li) for gi, li in zip(g, l))
        return self.ctx.launch(self.fns[name], grid, l, args).kernel_seconds

    def now(self) -> float:
        return self.ctx.now


class OpenCLHost(HostAPI):
    api_name = "opencl"
    dialect = OPENCL

    def __init__(self, spec: DeviceSpec):
        self.clctx = cl.create_context_for(spec.name)
        self.queue = cl.CommandQueue(self.clctx)
        self.sim = self.queue.device.sim
        self.kernels: dict = {}
        self.program: Optional[cl.Program] = None

    @property
    def spec(self) -> DeviceSpec:
        return self.clctx.device.spec

    @property
    def launch_count(self) -> int:
        return self.queue.launch_count

    def build(self, kernels, defines=None) -> None:
        self.program = cl.Program(self.clctx, list(kernels)).build(defines)
        for k in kernels:
            self.kernels[k.name] = self.program.kernel(k.name)

    def alloc(self, count, elem=Scalar.F32):
        return cl.Buffer.create(self.clctx, count, elem)

    def write(self, buf, host) -> None:
        self.queue.enqueue_write_buffer(buf, host)

    def read(self, buf, count) -> np.ndarray:
        arr, _ = self.queue.enqueue_read_buffer(buf, count)
        return arr

    def launch(self, name, global_threads, wg, **args) -> float:
        g, l = dim3(global_threads), dim3(wg)
        # OpenCL global sizes count work-items and must be padded to a
        # multiple of the work-group size (the usual host idiom)
        gsz = tuple(-(-gi // li) * li for gi, li in zip(g, l))
        kern = self.kernels[name]
        kern.set_args(**args)
        return self.queue.enqueue_nd_range(kern, gsz, l).kernel_seconds

    def now(self) -> float:
        return self.queue.now


def host_for(api: str, spec: DeviceSpec) -> HostAPI:
    if api == "cuda":
        return CudaHost(spec)
    if api == "opencl":
        return OpenCLHost(spec)
    raise ValueError(f"unknown API {api!r}")


class Benchmark(abc.ABC):
    """One of the paper's Table II applications.

    Subclasses provide kernels (per dialect, honoring ``options`` such as
    ``use_texture``/``use_constant``/unroll pragmas) and a host driver
    shared by both APIs.
    """

    name: str
    metric: Metric
    #: options accepted by ``kernels`` and their defaults per dialect;
    #: asymmetric defaults reproduce the paper's "as shipped" comparisons
    default_options: dict = {}

    @abc.abstractmethod
    def kernels(
        self, dialect: Dialect, options: Mapping, defines: Mapping, params: Mapping
    ) -> list[KirKernel]: ...

    def build_kernels(
        self, dialect: Dialect, options: Mapping, defines: Mapping, params: Mapping
    ) -> list[KirKernel]:
        """Kernels after variant rewriting — the single build entry point.

        Every consumer of a benchmark's kernels (host runs, the ABT
        preflight, variant planning) goes through here, so a ``rewrite``
        option — a :mod:`repro.kir.rewrite` token like
        ``sobel!promote:filt`` — is applied uniformly.  (The key is
        ``rewrite`` rather than ``variant`` because some benchmarks —
        SPMV — already use ``variant`` for their own algorithmic
        alternatives.)
        """
        kerns = self.kernels(dialect, options, defines, params)
        token = options.get("rewrite") if options else None
        if token:
            from ..kir.rewrite import apply_variant

            kerns = apply_variant(kerns, token)
        return kerns

    @abc.abstractmethod
    def sizes(self) -> dict:
        """Named problem sizes: {"small": {...}, "default": {...}}."""

    @abc.abstractmethod
    def host_run(self, api: HostAPI, params: Mapping, options: Mapping) -> BenchResult:
        """Allocate, transfer, launch, verify; return the result."""

    # -- orchestration ------------------------------------------------------
    def options_for(self, dialect: Dialect, overrides: Optional[Mapping]) -> dict:
        opts = {}
        for key, per_dialect in self.default_options.items():
            if isinstance(per_dialect, dict):
                opts[key] = per_dialect[dialect.name]
            else:
                opts[key] = per_dialect
        if overrides:
            opts.update(overrides)
        return opts

    def build_inputs(
        self,
        dialect: Dialect,
        spec: DeviceSpec,
        size: str,
        overrides: Optional[Mapping] = None,
    ) -> tuple:
        """``(params, options, defines)`` of a build on ``spec``, for runs,
        unit fingerprints and gap attribution alike.  SDK-style code bakes
        the device's wavefront width in as ``WARP_SIZE``."""
        return (
            self.sizes()[size],
            self.options_for(dialect, overrides),
            {"WARP_SIZE": spec.warp_width},
        )

    def run(
        self,
        api: HostAPI,
        size: str = "default",
        options: Optional[Mapping] = None,
    ) -> BenchResult:
        params, opts, defines = self.build_inputs(
            api.dialect, api.spec, size, options
        )
        kerns = self.build_kernels(api.dialect, opts, defines, params)
        try:
            api.build(kerns, defines)
        except (cl.CLError, CudaError) as e:
            return self._failure(api, e)
        try:
            return self.host_run(api, params, opts)
        except (cl.CLError, CudaError) as e:
            return self._failure(api, e)

    def _failure(self, api: HostAPI, err) -> BenchResult:
        """Record a failed run, classifying the error structurally.

        Resource aborts (``repro.errors.classify(err) is ABT``) keep the
        paper's byte-compatible "ABT" tag; everything else surfaces its
        driver error code.  ``err`` may also be a pre-computed tag
        string for benchmarks that detect failure without an exception.
        """
        if isinstance(err, BaseException):
            if classify(err) is FailureKind.ABT:
                tag = "ABT"
            else:
                tag = str(getattr(err, "code", None) or err)
        else:
            tag = str(err)
        return BenchResult(
            benchmark=self.name,
            api=api.api_name,
            device=api.spec.name,
            value=float("nan"),
            unit=self.metric.unit,
            kernel_seconds=float("nan"),
            wall_seconds=float("nan"),
            launches=0,
            correct=False,
            failure=tag,
        )

    def result(
        self,
        api: HostAPI,
        value: float,
        kernel_seconds: float,
        correct: bool,
        wall: float = 0.0,
        detail: Optional[dict] = None,
    ) -> BenchResult:
        return BenchResult(
            benchmark=self.name,
            api=api.api_name,
            device=api.spec.name,
            value=value,
            unit=self.metric.unit,
            kernel_seconds=kernel_seconds,
            wall_seconds=wall,
            launches=api.launch_count,
            correct=correct,
            failure=None if correct else "FL",
            detail=detail or {},
        )
