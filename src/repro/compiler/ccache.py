"""In-process compilation cache shared by the two front ends.

Sweeps compile the same few source kernels hundreds of times (every
device x experiment unit rebuilds its programs from scratch), and the
pipeline is pure: output depends only on the source kernel, the
dialect, and the register budget.  The cache keys on exactly those and
returns a *defensive copy* per hit — callers mutate the result
(``Program.build`` rewrites ``defines``, runtimes set ``producer``) and
digests are memoized onto kernel objects, so shared instances would
alias across programs.

The KIR ``Kernel`` tree is plain nested dataclasses, so a structural
serialization of it is a deterministic fingerprint of the source:
``pickle`` gives the same bytes for trees built the same way and runs
at C speed, where the dataclass ``repr`` walk dominated compile-hit
cost.  Instruction lists are copied shallowly: ``Instr`` objects are
never mutated after assembly.
"""
from __future__ import annotations

import dataclasses
import pickle

from ..kir.stmt import Kernel
from ..ptx.module import PTXKernel

__all__ = ["cached_compile", "clear"]

_cache: dict = {}
_CAP = 512  # source kernels are small; this is plenty for any sweep


def _key(dialect: str, kernel: Kernel, max_regs: int) -> tuple:
    # ``defines`` is attached as a plain attribute, not a field, so the
    # structural dump of the kernel tree does not cover it
    return (
        dialect,
        max_regs,
        pickle.dumps((kernel, getattr(kernel, "defines", None)), protocol=4),
    )


def _clone(ptx: PTXKernel) -> PTXKernel:
    k = PTXKernel(
        name=ptx.name,
        params=list(ptx.params),
        instrs=list(ptx.instrs),
        resources=dataclasses.replace(ptx.resources),
        shared_decls=dict(ptx.shared_decls),
        producer=ptx.producer,
        dialect=ptx.dialect,
        virtual_regs=ptx.virtual_regs,
        defines=dict(ptx.defines),
    )
    # the content digest covers exactly the fields cloned above, so it
    # transfers — sweeps then pay one digest per unique compile
    d = ptx.__dict__.get("_content_digest")
    if d is not None:
        k.__dict__["_content_digest"] = d
    return k


def cached_compile(dialect: str, kernel: Kernel, max_regs: int, compile_fn):
    """Return a compiled copy of ``kernel``, compiling on first sight."""
    key = _key(dialect, kernel, max_regs)
    entry = _cache.get(key)
    if entry is not None:
        return _clone(entry)
    ptx = compile_fn()
    ptx.content_digest()  # memoize pre-clone so every copy inherits it
    if len(_cache) < _CAP:
        _cache[key] = _clone(ptx)
    return ptx


def clear() -> None:
    """Drop all entries (tests use this to force cold compiles)."""
    _cache.clear()
