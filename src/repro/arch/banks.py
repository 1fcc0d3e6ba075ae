"""Shared-memory bank-conflict model.

GT200 resolves shared accesses per half-warp over 16 banks of 4 bytes;
Fermi per full warp over 32 banks.  The cost of a warp shared access is
its worst per-bank replay count (same-address broadcast is free).
:func:`bank_replays` resolves every warp row of an instruction in one
vectorized pass; :func:`bank_conflicts` is its per-warp reference.
"""
from __future__ import annotations

import numpy as np

from .coalesce import compact_rows, row_distinct
from .specs import DeviceSpec

__all__ = ["bank_conflicts", "bank_replays"]


def _conflicts(addrs: np.ndarray, banks: int) -> int:
    if addrs.size == 0:
        return 0
    # distinct words per bank (same word broadcasts): one unique pass
    # plus a bincount instead of a Python loop over the banks
    words = np.unique(addrs // 4)
    counts = np.bincount((words % banks).astype(np.intp))
    return max(1, int(counts.max()))


def bank_conflicts(spec: DeviceSpec, addrs: np.ndarray) -> int:
    """Replay factor (>= 1) for one warp's shared-memory access."""
    if spec.architecture == "gt200":
        worst = 1
        for lo in range(0, addrs.size, 16):
            worst = max(worst, _conflicts(addrs[lo : lo + 16], 16))
        return worst
    if spec.architecture in ("fermi", "cypress"):
        return _conflicts(addrs, 32)
    return 1  # CPU / Cell: no banked SRAM semantics


def bank_replays(
    spec: DeviceSpec, addrs: np.ndarray, active: np.ndarray | None
) -> np.ndarray:
    """Replay factor of many warp rows at once.

    ``addrs`` is ``(rows, warp_width)`` int64 lane addresses and
    ``active`` the lane mask (None: every lane).  Entry ``r`` equals
    ``bank_conflicts(spec, addrs[r][active[r]])`` for every row with an
    active lane; rows without one report 1 (they issue no access).
    """
    rows, width = addrs.shape
    if spec.architecture == "gt200":
        chunk, banks = 16, 16
    elif spec.architecture in ("fermi", "cypress"):
        chunk, banks = width, 32
    else:
        return np.ones(rows, dtype=np.int64)
    words = addrs // 4
    if active is not None:
        if chunk < width:
            # half-warps chunk each row's compacted lane list
            words, active = compact_rows(words, active)
        active = active.reshape(-1, chunk)
    grp, distinct = row_distinct(words.reshape(-1, chunk), active)
    per_bank = np.bincount(
        grp * banks + distinct % banks, minlength=rows * (width // chunk) * banks
    )
    return np.maximum(per_bank.reshape(rows, -1).max(axis=1), 1)
