"""Compiler passes: KIR-level (fold, unroll) and PTX-level (dce)."""
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .unroll import UnrollReport, unroll_loops

__all__ = [
    "fold_constants",
    "eliminate_dead_code",
    "unroll_loops",
    "UnrollReport",
]
