"""NVOPENCC — the CUDA front-end compiler (paper Fig. 9, step 5).

The shared pipeline (:func:`repro.compiler.lower.compile_with`) under
:data:`~repro.compiler.style.NVOPENCC_STYLE`: branch-pruning constant
fold, pragma + auto unroll, CSE, integer-mad addressing,
if-predication and mov-rich home registers, at the device's full
register budget.

The maturity of this pipeline relative to :mod:`repro.compiler.clc` is
the paper's explanation for the FFT gap (§IV-B.4, Table V).
"""
from __future__ import annotations

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel
from .lower import compile_with
from .style import NVOPENCC_STYLE

__all__ = ["compile_cuda"]


def compile_cuda(
    kernel: Kernel, max_regs: int = 124, force: bool = False
) -> PTXKernel:
    """Compile a CUDA-dialect kernel to allocated virtual ISA.

    ``max_regs`` is the target device's per-thread register budget
    (124 on GT200-class, 63 on Fermi).  ``force`` permits compiling an
    OpenCL-dialect kernel (used by cross-front-end experiments only).
    """
    return compile_with(NVOPENCC_STYLE, kernel, max_regs, force)
