"""Code-generation styles: where front-end "maturity" lives.

The paper explains the FFT gap by front-end compiler maturity, observed
as radically different PTX instruction mixes for identical source
(Table V).  We encode each front end's habits as a :class:`CodegenStyle`
that drives the one compile pipeline
(:func:`~repro.compiler.lower.compile_with`):

* **NVOPENCC** (CUDA): aggressive auto-unrolling and branch-pruning
  constant folding, expression CSE, integer ``mad`` fusion for address
  math, predication of small ``if`` bodies, and a two-address, mov-rich
  emission discipline (every source variable has a *home* register that
  results are ``mov``-ed into — the reason CUDA PTX shows hundreds of
  ``mov``/``st.local``/``ld.local`` yet few arithmetic instructions).

* **CLC** (OpenCL): unrolls only where the programmer wrote a pragma,
  folds only literal-literal arithmetic (never prunes control flow),
  re-materializes every address expression (no CSE), lowers power-of-two
  division/modulo to ``shr``/``and`` masks, keeps conditionals as
  ``setp``/``selp``/``bra``, fuses float multiply-add into ``fma``, and
  allocates registers within three quarters of the device budget.
"""
from __future__ import annotations

import dataclasses

__all__ = ["CodegenStyle", "NVOPENCC_STYLE", "CLC_STYLE"]


@dataclasses.dataclass(frozen=True)
class CodegenStyle:
    name: str
    #: the kernel dialect this front end compiles ("cuda" | "opencl")
    dialect: str
    #: memoize pure subexpressions into registers (expression CSE)
    cse: bool
    #: give every source variable a home register and ``mov`` results in
    home_regs: bool
    #: fuse integer ``a*b+c`` (address math) into one ``mad``
    fuse_int_mad: bool
    #: opcode for float ``a*b+c`` fusion: "mad" (GT200-era nvopencc),
    #: "fma" (OpenCL C compiler), or None (no fusion)
    float_fuse: str | None
    #: compute buffer addresses with ``mad`` (else ``shl``+``add``)
    addr_via_mad: bool
    #: max if-body size (real instructions) lowered to predicated
    #: instructions instead of branches (0: never predicate)
    predicate_limit: int
    #: auto-unroll constant-trip loops up to this many iterations
    #: (0 disables; pragmas are always honored)
    auto_unroll_limit: int
    #: constant folding prunes If/Select with constant conditions and
    #: applies algebraic identities (else it folds literal arithmetic only)
    fold_prunes_branches: bool
    #: share of the device register budget the allocator may use before
    #: spilling, and the floor under it
    reg_budget_factor: float
    reg_budget_floor: int
    #: loop-body length beyond which the allocator's liveness degrades
    #: to whole-body ranges (0: always precise; see ``ptxas.py``)
    conservative_span: int


NVOPENCC_STYLE = CodegenStyle(
    name="nvopencc",
    dialect="cuda",
    cse=True,
    home_regs=True,
    fuse_int_mad=True,
    float_fuse="mad",  # GT200-era nvopencc emitted mad.f32, not fma
    addr_via_mad=True,
    predicate_limit=4,
    auto_unroll_limit=64,
    fold_prunes_branches=True,
    reg_budget_factor=1.0,
    reg_budget_floor=0,
    conservative_span=0,
)

CLC_STYLE = CodegenStyle(
    name="clc",
    dialect="opencl",
    cse=False,
    home_regs=False,
    fuse_int_mad=False,
    float_fuse="fma",
    addr_via_mad=False,
    predicate_limit=0,
    auto_unroll_limit=0,
    fold_prunes_branches=False,
    # the 2010-era allocator pins address temporaries and does not
    # coalesce copies: calibrated against the OpenCL FDTD collapse when
    # unrolling at point *a* (paper Fig. 7)
    reg_budget_factor=0.75,
    reg_budget_floor=16,
    conservative_span=300,
)
