"""PTX-like virtual ISA: instructions, kernels, statistics, verification."""
from .instructions import Imm, Instr, Reg, RegAllocator
from .isa import IClass, Op, is_load, is_memory, is_store, klass_of, stats_key
from .module import PTXKernel, PTXParam, ResourceUsage
from .printer import format_instr, format_kernel
from .stats import class_totals, histogram, table
from .verify import PTXVerificationError, verify

__all__ = [
    "Imm",
    "Instr",
    "Reg",
    "RegAllocator",
    "IClass",
    "Op",
    "klass_of",
    "stats_key",
    "is_memory",
    "is_load",
    "is_store",
    "PTXKernel",
    "PTXParam",
    "ResourceUsage",
    "format_instr",
    "format_kernel",
    "histogram",
    "class_totals",
    "table",
    "verify",
    "PTXVerificationError",
]
