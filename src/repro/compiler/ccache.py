"""In-process compilation cache shared by the two front ends.

Sweeps compile the same few source kernels hundreds of times (every
device x experiment unit rebuilds its programs from scratch), and the
pipeline is pure: output depends only on the source kernel, the
dialect, and the register budget.  The cache keys on exactly those and
stores each compiled kernel as its pickled bytes, so every hit unpickles
a private copy — callers mutate the result (``Program.build`` rewrites
``defines``, runtimes set ``producer``, the interpreter memoizes launch
preparation on the object) and nothing aliases across programs.  The
memoized content digest is in the pickled ``__dict__``, so sweeps pay
one digest per unique compile.  Bytes also keep a long-lived process
small: pickled, a sweep's entries take about a sixth of the memory of
the live instruction graphs they stand for.

The KIR ``Kernel`` tree is plain nested dataclasses, so a structural
serialization of it is a deterministic fingerprint of the source:
``pickle`` gives the same bytes for trees built the same way and runs
at C speed, where the dataclass ``repr`` walk dominated compile-hit
cost.
"""
from __future__ import annotations

import pickle

from ..kir.stmt import Kernel

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


def cached_compile(dialect: str, kernel: Kernel, max_regs: int, compile_fn):
    """Return a compiled copy of ``kernel``, compiling on first sight."""
    key = _key(dialect, kernel, max_regs)
    entry = _cache.get(key)
    if entry is not None:
        return pickle.loads(entry)
    ptx = compile_fn()
    ptx.content_digest()  # memoize before pickling so every copy inherits it
    if len(_cache) < _CAP:
        _cache[key] = pickle.dumps(ptx, protocol=pickle.HIGHEST_PROTOCOL)
    return ptx


def clear() -> None:
    """Drop all entries (tests use this to force cold compiles)."""
    _cache.clear()
