"""The host path both runtimes share: build, launch overhead, accounting.

Each decision between a kernel and its launch is made here once:
:func:`compile_for` picks a build's front end and register budget, the
overhead models price a launch, and :func:`count_launch` and
:func:`stamp_profile` account for it.

§IV-B.4 of the paper: "the kernel launch time of OpenCL is longer than
that of CUDA (the gap size depends on the problem size), due to
differences in the run-time environment."  BFS invokes its kernels once
per frontier level, so this difference dominates its PR.

Both overheads have a fixed driver cost plus a small per-work-item setup
term; OpenCL's are larger (command-queue plumbing, richer argument
marshalling).  Values are calibrated to 2010-era driver measurements
(CUDA ~5 us, OpenCL ~10-20 us depending on ND-range size).
"""
from __future__ import annotations

from ..compiler.clc import compile_opencl
from ..compiler.nvopencc import compile_cuda
from ..telemetry import metrics
from ..telemetry.metrics import OVERHEAD_BUCKETS_S

__all__ = [
    "compile_for",
    "count_launch",
    "cuda_launch_overhead_s",
    "opencl_launch_overhead_s",
    "stamp_profile",
]

CUDA_LAUNCH_FIXED_S = 5.0e-6
CUDA_LAUNCH_PER_ITEM_S = 0.15e-9

OPENCL_LAUNCH_FIXED_S = 10.0e-6
OPENCL_LAUNCH_PER_ITEM_S = 0.5e-9


def compile_for(api: str, kernel, spec):
    """Compile ``kernel`` as ``api``'s host builds it for ``spec``:
    NVOPENCC or CLC, at the spec's launch budget for ``kernel.wg_hint``.
    The runtimes, the ABT preflight and gap attribution all build here."""
    front_end = compile_cuda if api == "cuda" else compile_opencl
    return front_end(kernel, max_regs=spec.launch_reg_budget(kernel.wg_hint))


def cuda_launch_overhead_s(total_work_items: int) -> float:
    return CUDA_LAUNCH_FIXED_S + CUDA_LAUNCH_PER_ITEM_S * total_work_items


def opencl_launch_overhead_s(total_work_items: int) -> float:
    return OPENCL_LAUNCH_FIXED_S + OPENCL_LAUNCH_PER_ITEM_S * total_work_items


def count_launch(api: str, overhead: float) -> None:
    """Count one launch and its overhead under ``runtime.<api>.*``.

    CUDA counts a launch the device admitted; OpenCL counts at enqueue,
    so a rejected enqueue counts too (the ``repro.bench`` gate's
    ``launch.*`` values rest on that order).
    """
    metrics.counter(f"runtime.{api}.launches").inc()
    metrics.counter(f"runtime.{api}.launch_overhead_s").inc(overhead)
    metrics.histogram(f"runtime.{api}.overhead_s", OVERHEAD_BUCKETS_S).observe(
        overhead
    )


def stamp_profile(res, api: str, compile_s: float, overhead: float, queued: float):
    """Stamp the host-side times on a launch queued at ``queued``;
    returns its ``(start, end)`` on the runtime's virtual clock."""
    start = queued + overhead
    end = start + res.kernel_seconds
    p = res.profile
    if p is not None:
        p.api, p.compile_s, p.launch_overhead_s = api, compile_s, overhead
        p.queued_s, p.start_s, p.end_s = queued, start, end
    return start, end
