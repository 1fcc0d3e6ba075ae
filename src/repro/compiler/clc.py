"""CLC — the OpenCL C front-end compiler (paper Fig. 9, step 5).

The shared pipeline (:func:`repro.compiler.lower.compile_with`) under
:data:`~repro.compiler.style.CLC_STYLE`: literal-only constant fold,
pragma-only unroll, no CSE, shift+add addressing, branchy control flow
and float-fma fusion, with a reduced effective register budget.

The reduced budget models the 2010-era OpenCL allocator's earlier
spilling (``CLC_STYLE.reg_budget_factor``/``conservative_span``); this
is the documented calibration behind the OpenCL FDTD collapse when
unrolling at point *a* (paper Fig. 7).
"""
from __future__ import annotations

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel
from .lower import compile_with
from .style import CLC_STYLE

__all__ = ["compile_opencl"]


def compile_opencl(
    kernel: Kernel, max_regs: int = 124, force: bool = False
) -> PTXKernel:
    """Compile an OpenCL-dialect kernel to allocated virtual ISA."""
    return compile_with(CLC_STYLE, kernel, max_regs, force)
