"""Loop unrolling — ``#pragma unroll`` and front-end auto-unrolling.

NVOPENCC honors pragmas *and* automatically unrolls any constant-trip
loop up to its ``auto_unroll_limit``; CLC honors explicit pragmas only.
This asymmetry is the paper's §IV-B.2 (the FDTD pragma experiments of
Figs. 6–7) and feeds §IV-B.4 (FFT instruction-mix differences).

Unrolled copies are alpha-renamed so the result still validates, and the
loop variable is substituted with its per-copy value (a constant for full
unrolls, ``var + k*step`` for partial ones).  The expansion mechanics
live in :mod:`repro.kir.transform`, shared with the source-level rewrite
rules of :mod:`repro.kir.rewrite` so the two unroll paths cannot drift.
"""
from __future__ import annotations

import dataclasses

from ...kir.stmt import Barrier, For, If, Kernel, UNROLL_FULL, While
from ...kir.transform import const_trip as _const_trip
from ...kir.transform import expand_full, expand_partial

__all__ = ["unroll_loops", "UnrollReport"]

#: refuse to expand loops beyond this many copies (compile-time guard)
MAX_EXPANSION = 1024


@dataclasses.dataclass
class UnrollReport:
    unrolled: list = dataclasses.field(default_factory=list)
    skipped: list = dataclasses.field(default_factory=list)


#: auto-unroll budget: statements after expansion (pragmas are exempt)
AUTO_UNROLL_BUDGET = 512


def _auto_unrollable(s: For, trip: int) -> bool:
    """Whether NVOPENCC would unroll this loop *without* a pragma.

    Real front ends do not auto-unroll loops containing barriers (the
    copies would multiply synchronization) and respect a code-growth
    budget; pragma-annotated loops bypass both checks.
    """
    from ...kir.visit import walk_stmts

    body_stmts = 0
    for st in walk_stmts(s.body):
        body_stmts += 1
        if isinstance(st, Barrier):
            return False
    return trip * max(body_stmts, 1) <= AUTO_UNROLL_BUDGET


def _expand_full(s: For, report: UnrollReport) -> list:
    out = expand_full(s)
    report.unrolled.append((s.var.name, _const_trip(s)))
    return out


def _expand_partial(s: For, factor: int, report: UnrollReport) -> list:
    out = expand_partial(s, factor)
    report.unrolled.append((s.var.name, factor))
    return out


def unroll_loops(
    kernel: Kernel, auto_limit: int = 0, honor_pragmas: bool = True
) -> tuple:
    """Return ``(new_kernel, UnrollReport)``.

    ``auto_limit``: full-unroll any *unannotated* constant-trip loop with
    at most this many iterations (NVOPENCC behaviour; 0 disables).
    """
    report = UnrollReport()

    def visit_body(body) -> list:
        out: list = []
        for s in body:
            if isinstance(s, If):
                out.append(
                    If(s.cond, tuple(visit_body(s.then)), tuple(visit_body(s.orelse)))
                )
            elif isinstance(s, While):
                out.append(While(s.cond, tuple(visit_body(s.body))))
            elif isinstance(s, For):
                s = For(
                    s.var, s.start, s.stop, s.step, tuple(visit_body(s.body)), s.unroll
                )
                trip = _const_trip(s)
                pragma = s.unroll if honor_pragmas else None
                if pragma is not None:
                    if trip is None:
                        report.skipped.append(
                            (s.var.name, "trip count not a compile-time constant")
                        )
                        out.append(s)
                    elif pragma.factor == UNROLL_FULL or pragma.factor >= trip:
                        if trip > MAX_EXPANSION:
                            report.skipped.append((s.var.name, "loop too large"))
                            out.append(s)
                        else:
                            out.extend(_expand_full(s, report))
                    elif pragma.factor > 1:
                        out.extend(_expand_partial(s, pragma.factor, report))
                    else:
                        out.append(s)
                elif (
                    auto_limit
                    and trip is not None
                    and 0 < trip <= auto_limit
                    and _auto_unrollable(s, trip)
                ):
                    out.extend(_expand_full(s, report))
                else:
                    out.append(s)
            else:
                out.append(s)
        return out

    new = dataclasses.replace(
        kernel,
        body=visit_body(kernel.body),
        params=list(kernel.params),
        shared=list(kernel.shared),
    )
    return new, report
