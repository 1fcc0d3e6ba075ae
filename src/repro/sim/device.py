"""A simulated device: memory, caches, launch machinery.

Both runtimes (``repro.runtime.cuda`` / ``repro.runtime.opencl``) sit on
top of :class:`SimDevice`; the runtime layer adds the API surface and
the per-runtime launch overhead, while this layer owns functional
execution and the device-side timing model.
"""
from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

import numpy as np

from ..arch.occupancy import occupancy
from ..arch.specs import DeviceSpec
from ..errors import ReproError
from ..kir.types import Scalar, np_dtype
from ..prof.profile import LaunchProfile, build_launch_profile
from ..ptx.module import PTXKernel
from ..telemetry import metrics
from .interp import LaunchStats, run_grid
from .memo import LaunchMemo, cache_signature, memo_enabled
from .memory import FlatMemory, OutOfDeviceMemory
from .memsys import MemorySystem
from .timing import KernelTiming, kernel_time

__all__ = [
    "SimDevice",
    "LaunchResult",
    "LaunchFailure",
    "OutOfDeviceMemory",
    "admission_error",
    "dim3",
]


def admission_error(spec: DeviceSpec, resources, block: tuple) -> Optional[str]:
    """The driver error code a launch would be rejected with, or None.

    A pure function of (DeviceSpec, per-kernel resource usage, block
    shape) — the complete admission control the simulator applies at
    enqueue time.  These are the checks behind Table VI's "ABT" rows
    (Cell/BE rejects FFT/DXTC/RdxS/STNW), and because
    :func:`repro.exec.lifecycle.preflight_unit` calls *this same
    function* on resources compiled by the runtimes' one build path,
    :func:`repro.runtime.overhead.compile_for`, a preflight verdict
    agrees with the launch-time outcome by construction.
    """
    threads = block[0] * block[1] * block[2]
    if threads > spec.max_threads_per_block:
        return "CL_OUT_OF_RESOURCES"
    if resources.shared_bytes > spec.max_shared_per_block:
        return "CL_OUT_OF_RESOURCES"
    if resources.registers > spec.max_regs_per_thread:
        return "CL_OUT_OF_RESOURCES"
    if resources.registers * threads > spec.regfile_per_cu:
        return "CL_OUT_OF_RESOURCES"
    if resources.uses_texture and not spec.supports_cuda():
        return "CL_INVALID_KERNEL"
    occ = occupancy(spec, threads, resources.registers, resources.shared_bytes)
    if occ.blocks_per_cu == 0:
        return "CL_OUT_OF_RESOURCES"
    return None


class LaunchFailure(ReproError):
    """Kernel could not be launched (resource limits etc.).

    Carries the structured driver error ``code``; classification (e.g.
    ``CL_OUT_OF_RESOURCES`` -> Table VI "ABT") is done by
    :func:`repro.errors.classify` on the code, never on the message.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}", code=code)


@dataclasses.dataclass
class LaunchResult:
    timing: KernelTiming
    stats: LaunchStats
    profile: Optional[LaunchProfile] = None

    @property
    def kernel_seconds(self) -> float:
        return self.timing.total_s


def dim3(d) -> tuple:
    """A launch shape as its three extents: a scalar or a 1-3 tuple,
    padded with 1s (CUDA's ``dim3``, OpenCL's NDRange sizes)."""
    d = tuple(d) if isinstance(d, (tuple, list)) else (d,)
    return d + (1,) * (3 - len(d))


class SimDevice:
    def __init__(self, spec: DeviceSpec, memoize: bool | None = None):
        self.spec = spec
        self.mem = FlatMemory(spec.mem_capacity_mb * (1 << 20))
        self.memsys = MemorySystem(spec)
        #: one LaunchProfile per launch, in launch order
        self.profiles: list[LaunchProfile] = []
        #: in-run launch memo table (None when disabled); guarded replay
        #: of repeated identical launches — see :mod:`repro.sim.memo`
        if memoize is None:
            memoize = memo_enabled()
        self.memo: LaunchMemo | None = LaunchMemo() if memoize else None

    # -- memory -----------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        return self.mem.alloc(nbytes)

    def free(self, base: int, nbytes: int) -> None:
        self.mem.free(base, nbytes)

    def upload(self, base: int, host: np.ndarray) -> float:
        """Copy host->device; returns the modeled transfer seconds."""
        self.mem.write_bytes(base, host)
        return self._xfer_seconds(host.nbytes)

    def download(self, base: int, count: int, scalar: Scalar) -> tuple:
        arr = self.mem.read_array(base, count, scalar)
        return arr, self._xfer_seconds(arr.nbytes)

    def _xfer_seconds(self, nbytes: int) -> float:
        if self.spec.pcie_gbps <= 0:
            return nbytes / 8e9 + 2e-6  # in-host memcpy
        return nbytes / (self.spec.pcie_gbps * 1e9) + 8e-6

    # -- launch ------------------------------------------------------------
    def launch(
        self,
        kernel: PTXKernel,
        grid,
        block,
        args: Mapping[str, object],
    ) -> LaunchResult:
        """Run ``kernel`` over the grid; mutates device memory.

        ``args`` maps parameter names to device base addresses (pointer
        params, as ints) and Python/numpy scalars (value params).
        """
        grid = dim3(grid)
        block = dim3(block)
        err = admission_error(self.spec, kernel.resources, block)
        if err is not None:
            raise LaunchFailure(err, f"kernel {kernel.name!r} block={block}")

        prepared: dict = {}
        for p in kernel.params:
            if p.name not in args:
                raise KeyError(f"missing kernel argument {p.name!r}")
            v = args[p.name]
            if p.is_pointer:
                prepared[p.name] = np.uint32(int(v))
            else:
                prepared[p.name] = np_dtype(p.dtype)(v)

        # admission_error above already rejected occ.blocks_per_cu == 0
        occ = occupancy(
            self.spec,
            block[0] * block[1] * block[2],
            kernel.resources.registers,
            kernel.resources.shared_bytes,
        )

        msnap = self.memsys.prof_snapshot()
        regions_before = dict(self.memsys.region_counts)
        memo = self.memo
        entry = mkey = None
        if memo is not None:
            mkey = memo.key(kernel, prepared, grid, block)
            entry = memo.lookup(mkey, self.mem, self.memsys)
        if entry is not None:
            stats = memo.replay(entry, self.mem, self.memsys)
        elif memo is not None and memo.can_record(mkey):
            pre_caches = cache_signature(self.memsys)
            pre_counters = memo.pre_counters(self.mem, self.memsys)
            pre_banks = memo.pre_banks(self.memsys)
            self.mem.begin_trace()
            self.memsys.begin_dram_log()
            stats = run_grid(
                kernel, self.spec, self.memsys, self.mem, prepared, grid, block
            )
            trace = self.mem.end_trace()
            trace["dram_log"] = self.memsys.end_dram_log()
            memo.record(
                mkey, self.mem, self.memsys, trace, pre_caches,
                pre_counters, pre_banks, regions_before, stats,
            )
        else:
            stats = run_grid(
                kernel, self.spec, self.memsys, self.mem, prepared, grid, block
            )
        mem_delta = self.memsys.prof_since(msnap)
        dram = mem_delta["dram_bytes"]
        t = self.spec.timing
        hot_cycles = 0.0
        if t.partition_service_cycles > 0:
            for region, count in self.memsys.region_counts.items():
                delta = count - regions_before.get(region, 0)
                over = delta - t.partition_hot_threshold
                if over > 0:
                    hot_cycles += over * t.partition_service_cycles
        timing = kernel_time(self.spec, stats, dram, occ, hot_cycles)
        profile = build_launch_profile(
            kernel.name, self.spec.name, grid, block, stats, occ, timing,
            mem_delta,
        )
        self.profiles.append(profile)
        result = LaunchResult(timing=timing, stats=stats, profile=profile)
        metrics.counter("sim.launches").inc()
        metrics.counter("sim.dram_bytes").inc(float(np.sum(dram)))
        metrics.counter("sim.warp_instructions").inc(stats.warp_instructions)
        metrics.histogram("sim.kernel_s").observe(timing.total_s)
        return result
