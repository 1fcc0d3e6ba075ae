"""Device specifications and timing parameters.

The five devices of the paper (Tables III/IV):

* **GTX480** — Fermi: true cache hierarchy (L1/L2), R=2 (mad-only issue)
* **GTX280** — GT200: no global-memory cache, R=3 (dual-issue mul+mad)
* **HD5870** — Cypress: VLIW5, wavefront width 64
* **Intel920** — Core i7 920 as an OpenCL CPU device (AMD APP v2.2)
* **Cell/BE** — accelerator device with tight local-store/register limits

Every *calibrated* constant is annotated with the paper observation it
was fitted against.  Mechanistic constants (clocks, widths, counts) come
from Table IV / vendor documents.  Changing calibration constants moves
magnitudes, not directions: directional results come from mechanism
(caches, coalescing, launch overhead, compiler output).
"""
from __future__ import annotations

import dataclasses

__all__ = ["TimingParams", "DeviceSpec", "GTX480", "GTX280", "HD5870", "INTEL920", "CELLBE", "ALL_DEVICES", "device_by_name"]


@dataclasses.dataclass(frozen=True)
class TimingParams:
    """Cost model constants, in core-clock cycles unless noted."""

    #: cycles for one warp-wide simple ALU instruction (lanes / ALUs per CU)
    alu_cycles: float
    #: multiplier for transcendental / special-function ops (SFU pressure)
    sfu_factor: float = 8.0
    #: multiplier for integer div/rem (emulated, many-cycle)
    idiv_factor: float = 16.0
    #: fraction of mul issue slots co-issued for free next to a mad
    #: (GT200 dual-issue; calibrated against Fig. 2's 71.5% of R=3 peak)
    dual_issue_efficiency: float = 0.0
    #: efficiency of the ALU issue pipeline (ramp, scheduler stalls);
    #: calibrated against Fig. 2 achieved-peak fractions
    alu_efficiency: float = 1.0
    #: DRAM round-trip latency for a global access
    dram_latency: float = 420.0
    #: additional cycles per extra memory transaction in one warp access
    tx_cycles: float = 32.0
    #: fraction of theoretical bandwidth reachable by a perfectly
    #: coalesced stream (calibrated against Fig. 1: 68.6% / 87.7%)
    dram_efficiency: float = 0.8
    #: shared/local-memory access latency and per-conflict serialization
    shared_latency: float = 24.0
    #: constant-cache hit latency (broadcast) and texture-cache hit latency
    const_hit: float = 8.0
    tex_hit: float = 40.0
    #: L1/L2 hit latencies (Fermi-style hierarchies only)
    l1_hit: float = 28.0
    l2_hit: float = 120.0
    #: memory-level parallelism cap: outstanding warp-memory requests a CU
    #: can overlap (a Hong–Kim-style MWP bound)
    mwp_cap: float = 12.0
    #: relative cost of a register-to-register ``mov``: ptxas folds most
    #: of them away by renaming during SASS generation, which is why the
    #: mov-heavy CUDA PTX of Table V still runs fast
    reg_mov_factor: float = 0.05
    #: imperfect compute/memory overlap: the smaller stream leaks this
    #: fraction into total time (calibrated against Fig. 1's CUDA-vs-
    #: OpenCL bandwidth deltas of 8.5% / 2.4%: the mov-richer CUDA stream
    #: costs a few percent even when memory-bound)
    overlap_leak: float = 0.12
    #: fixed per-launch pipeline ramp on the device (microseconds)
    ramp_us: float = 2.0
    #: DRAM partition-camping model: accesses from the whole device to
    #: one 256B region serialize at this many cycles each once the
    #: region is hot (GT200's famous pathology; Fermi's L2 absorbs it).
    #: Calibrated against Fig. 8's 4x constant-memory win on GTX280.
    partition_service_cycles: float = 0.0
    #: accesses per region per launch before contention kicks in
    partition_hot_threshold: float = 256.0


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    name: str
    vendor: str
    device_type: str  # "gpu" | "cpu" | "accelerator"
    architecture: str  # "gt200" | "fermi" | "cypress" | "x86" | "cell"
    compute_units: int
    cores: int  # scalar cores / PEs total
    core_clock_mhz: float
    mem_clock_mhz: float
    miw_bits: int  # memory interface width
    mem_capacity_mb: int
    warp_width: int
    #: R of Eq. 3: max flops per scalar core per cycle
    flops_per_core_cycle: float
    # resource limits (occupancy + Table VI failure modes)
    max_regs_per_thread: int
    regfile_per_cu: int
    shared_mem_per_cu: int
    max_shared_per_block: int
    max_threads_per_block: int
    max_threads_per_cu: int
    max_blocks_per_cu: int
    # cache hierarchy
    has_global_cache: bool  # Fermi L1/L2 over plain global loads
    l1_bytes: int
    l2_bytes: int
    tex_cache_bytes: int
    const_cache_bytes: int
    line_bytes: int
    # host-side transfer
    pcie_gbps: float
    timing: TimingParams = dataclasses.field(default_factory=lambda: TimingParams(4.0))
    #: True when explicit local-memory staging is just an extra copy
    #: (CPU devices: "all OpenCL memory objects for CPU are cached
    #: implicitly by hardware" — paper §V / TranP observation)
    local_mem_is_plain_memory: bool = False

    @property
    def cores_per_cu(self) -> int:
        return self.cores // self.compute_units

    def core_clock_hz(self) -> float:
        return self.core_clock_mhz * 1e6

    def supports_cuda(self) -> bool:
        return self.vendor == "NVIDIA"

    def launch_reg_budget(self, wg_hint: int) -> int:
        """Per-thread register budget the front ends compile against.

        nvcc-style launch bounds: the budget respects both the hard
        per-thread ceiling and the register file at the kernel's
        intended block size.  Read only by
        :func:`repro.runtime.overhead.compile_for`, the one build path
        of both runtimes, the ABT preflight and gap attribution, so a
        preflight verdict is computed against exactly the registers the
        real build gets.
        """
        return min(
            self.max_regs_per_thread,
            max(16, self.regfile_per_cu // max(wg_hint, 32)),
        )


GTX480 = DeviceSpec(
    name="GTX480",
    vendor="NVIDIA",
    device_type="gpu",
    architecture="fermi",
    compute_units=15,  # Table IV lists 60 dispatch units; 15 SMs x 32 cores
    cores=480,
    core_clock_mhz=1401.0,
    mem_clock_mhz=1848.0,
    miw_bits=384,
    mem_capacity_mb=1536,
    warp_width=32,
    flops_per_core_cycle=2.0,  # mad-only issue (paper §IV-A.2)
    max_regs_per_thread=63,
    regfile_per_cu=32768,
    shared_mem_per_cu=49152,
    max_shared_per_block=49152,
    max_threads_per_block=1024,
    max_threads_per_cu=1536,
    max_blocks_per_cu=8,
    has_global_cache=True,
    l1_bytes=16384,
    l2_bytes=786432,
    tex_cache_bytes=12288,
    const_cache_bytes=8192,
    line_bytes=128,
    pcie_gbps=5.2,
    timing=TimingParams(
        alu_cycles=1.0,
        tex_hit=18.0,  # dedicated texture pipeline beats L1 for gathers (Fig. 4)
        dual_issue_efficiency=0.0,
        alu_efficiency=0.985,  # Fig. 2: 97.7% of TP_FLOPS reached
        dram_latency=360.0,
        tx_cycles=24.0,
        dram_efficiency=0.95,  # Fig. 1: 87.7% of TP_BW (OpenCL)
        mwp_cap=24.0,
        overlap_leak=0.05,  # Fig. 1: CUDA only 2.4% behind on Fermi
        ramp_us=0.5,
    ),
)

GTX280 = DeviceSpec(
    name="GTX280",
    vendor="NVIDIA",
    device_type="gpu",
    architecture="gt200",
    compute_units=30,
    cores=240,
    core_clock_mhz=1296.0,
    mem_clock_mhz=1107.0,
    miw_bits=512,
    mem_capacity_mb=1024,
    warp_width=32,
    flops_per_core_cycle=3.0,  # dual-issue mul+mad (paper §IV-A.2)
    max_regs_per_thread=124,
    regfile_per_cu=16384,
    shared_mem_per_cu=16384,
    max_shared_per_block=16384,
    max_threads_per_block=512,
    max_threads_per_cu=1024,
    max_blocks_per_cu=8,
    has_global_cache=False,  # the crux of the Sobel result (Fig. 8)
    l1_bytes=0,
    l2_bytes=0,
    tex_cache_bytes=8192,
    const_cache_bytes=8192,
    line_bytes=64,
    pcie_gbps=5.0,
    timing=TimingParams(
        alu_cycles=4.0,  # 8 cores/SM, warp of 32
        dual_issue_efficiency=0.70,  # Fig. 2: 71.5% of R=3 peak
        alu_efficiency=0.97,
        dram_latency=480.0,
        tx_cycles=36.0,
        dram_efficiency=0.80,  # Fig. 1: 68.6% of TP_BW (OpenCL)
        mwp_cap=16.0,
        overlap_leak=0.16,  # Fig. 1: CUDA 8.5% behind on GT200
        ramp_us=1.0,
        partition_service_cycles=6.0,  # Fig. 8: ~4x from constant memory
    ),
)

HD5870 = DeviceSpec(
    name="HD5870",
    vendor="AMD",
    device_type="gpu",
    architecture="cypress",
    compute_units=20,
    cores=1600,  # Table IV: 1600 processing elements (320 VLIW5 cores)
    core_clock_mhz=850.0,
    mem_clock_mhz=1200.0,
    miw_bits=256,
    mem_capacity_mb=1024,
    warp_width=64,  # wavefront size — the RdxS "FL" mechanism (Table VI)
    flops_per_core_cycle=2.0,
    max_regs_per_thread=124,
    regfile_per_cu=16384,
    shared_mem_per_cu=32768,
    max_shared_per_block=32768,
    max_threads_per_block=256,
    max_threads_per_cu=1024,
    max_blocks_per_cu=8,
    has_global_cache=False,
    l1_bytes=0,
    l2_bytes=0,
    tex_cache_bytes=8192,
    const_cache_bytes=8192,
    line_bytes=64,
    pcie_gbps=5.0,
    timing=TimingParams(
        alu_cycles=0.8,  # 80 lanes/CU, wavefront 64; VLIW5 packing ~62%
        dual_issue_efficiency=0.0,
        alu_efficiency=0.62,  # VLIW packing on scalar kernels
        dram_latency=500.0,
        tx_cycles=40.0,
        dram_efficiency=0.70,
        mwp_cap=10.0,
        overlap_leak=0.12,
    ),
)

INTEL920 = DeviceSpec(
    name="Intel920",
    vendor="Intel",
    device_type="cpu",
    architecture="x86",
    compute_units=4,
    cores=16,  # 4 cores x SSE width 4 (APP v2.2 maps lanes to SSE)
    core_clock_mhz=2670.0,
    mem_clock_mhz=1333.0,
    miw_bits=192,
    mem_capacity_mb=6144,
    warp_width=4,
    flops_per_core_cycle=2.0,
    max_regs_per_thread=256,
    regfile_per_cu=1 << 20,
    shared_mem_per_cu=1 << 20,
    max_shared_per_block=1 << 20,
    max_threads_per_block=1024,
    max_threads_per_cu=1024,
    max_blocks_per_cu=64,
    has_global_cache=True,
    l1_bytes=32768,
    l2_bytes=8 << 20,
    tex_cache_bytes=0,
    const_cache_bytes=32768,
    line_bytes=64,
    pcie_gbps=0.0,  # host == device; transfers are memcpy
    timing=TimingParams(
        alu_cycles=1.0,
        sfu_factor=12.0,
        dual_issue_efficiency=0.0,
        alu_efficiency=0.55,  # work-item emulation overhead of APP on CPU
        dram_latency=180.0,
        tx_cycles=20.0,
        dram_efficiency=0.55,  # ~18 GB/s of triple-channel DDR3
        shared_latency=220.0,  # APP marshals "local memory" through heap
        # copies; the paper's TranP drops 2.411 -> 0.215 GB/s because of it
        mwp_cap=4.0,
        overlap_leak=0.3,
        ramp_us=15.0,  # thread-pool wakeup
    ),
    local_mem_is_plain_memory=True,
)

CELLBE = DeviceSpec(
    name="Cell/BE",
    vendor="IBM",
    device_type="accelerator",
    architecture="cell",
    compute_units=8,  # SPEs
    cores=32,  # 8 SPEs x 4-wide SIMD
    core_clock_mhz=3200.0,
    mem_clock_mhz=800.0,
    miw_bits=128,
    mem_capacity_mb=256,
    warp_width=4,
    flops_per_core_cycle=2.0,
    # tight limits: the source of the "ABT" rows in Table VI
    # (scan/MxM at 2 KB shared fit exactly; FFT/DXTC/RdxS/STNW do not)
    max_regs_per_thread=64,
    regfile_per_cu=8192,
    shared_mem_per_cu=2048,
    max_shared_per_block=2048,
    max_threads_per_block=256,
    max_threads_per_cu=256,
    max_blocks_per_cu=1,
    has_global_cache=False,
    l1_bytes=0,
    l2_bytes=0,
    tex_cache_bytes=0,
    const_cache_bytes=4096,
    line_bytes=128,
    pcie_gbps=2.0,
    timing=TimingParams(
        alu_cycles=1.0,
        sfu_factor=20.0,
        dual_issue_efficiency=0.0,
        alu_efficiency=0.30,  # OpenCL-over-SPE emulation (IBM SDK alpha)
        dram_latency=600.0,
        tx_cycles=60.0,
        dram_efficiency=0.35,
        shared_latency=8.0,  # local store is genuinely fast...
        mwp_cap=2.0,
        overlap_leak=0.4,
        ramp_us=60.0,  # SPE context upload
    ),
)

ALL_DEVICES = {d.name: d for d in (GTX480, GTX280, HD5870, INTEL920, CELLBE)}


def device_by_name(name: str) -> DeviceSpec:
    try:
        return ALL_DEVICES[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(ALL_DEVICES)}"
        ) from None
