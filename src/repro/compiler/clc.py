"""CLC — the OpenCL C front-end compiler (paper Fig. 9, step 5).

Pipeline: literal-only constant fold -> pragma-only unroll -> re-fold ->
style-directed lowering (no CSE, shift+add addressing, branchy control
flow, float-fma fusion) -> DCE -> ptxas with a reduced effective
register budget.

The reduced budget models the 2010-era OpenCL allocator's earlier
spilling (it pins address temporaries and does not coalesce copies);
this is the documented calibration behind the OpenCL FDTD collapse when
unrolling at point *a* (paper Fig. 7).
"""
from __future__ import annotations

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel
from .ccache import cached_compile
from .lower import lower_kernel
from .passes.constfold import fold_constants
from .passes.dce import eliminate_dead_code
from .passes.unroll import unroll_loops
from .ptxas import assemble
from .style import CLC_STYLE

__all__ = ["compile_opencl", "CLC_REG_BUDGET_FACTOR", "CLC_CONSERVATIVE_SPAN"]

#: fraction of the device register budget the CLC allocator can use
#: before spilling (calibrated against paper Fig. 7; see module docs).
CLC_REG_BUDGET_FACTOR = 0.75

#: loop-body length (instructions) beyond which the CLC allocator's
#: liveness degrades to whole-body ranges (see compiler/ptxas.py)
CLC_CONSERVATIVE_SPAN = 300


def compile_opencl(
    kernel: Kernel, max_regs: int = 124, force: bool = False
) -> PTXKernel:
    """Compile an OpenCL-dialect kernel to allocated virtual ISA."""
    if kernel.dialect != "opencl" and not force:
        raise ValueError(
            f"kernel {kernel.name!r} is {kernel.dialect}-dialect; "
            "use compile_cuda (or force=True)"
        )
    return cached_compile(
        "opencl", kernel, max_regs, lambda: _compile(kernel, max_regs)
    )


def _compile(kernel: Kernel, max_regs: int) -> PTXKernel:
    k = fold_constants(kernel, prune_branches=False, algebraic=False)
    k, _ = unroll_loops(k, auto_limit=0, honor_pragmas=True)
    k = fold_constants(k, prune_branches=False, algebraic=False)
    ptx = lower_kernel(k, CLC_STYLE)
    eliminate_dead_code(ptx)
    effective = max(16, int(max_regs * CLC_REG_BUDGET_FACTOR))
    assemble(ptx, max_regs=effective, conservative_span=CLC_CONSERVATIVE_SPAN)
    ptx.producer = "clc"
    ptx.defines = dict(getattr(kernel, "defines", {}) or {})
    return ptx
