"""Occupancy calculator: resident blocks/warps per compute unit.

The same arithmetic as NVIDIA's occupancy spreadsheet: resident blocks
are limited by the register file, shared memory, the thread ceiling and
the block ceiling.  Active warps feed the timing model's latency-hiding
term — which is how register spills (compiler!) become performance
(architecture), the coupling the paper's Fig. 7 exercises.
"""
from __future__ import annotations

import dataclasses

from .specs import DeviceSpec

__all__ = ["Occupancy", "occupancy"]


@dataclasses.dataclass(frozen=True)
class Occupancy:
    blocks_per_cu: int
    warps_per_cu: int
    active_threads_per_cu: int
    limiter: str


def occupancy(
    spec: DeviceSpec,
    threads_per_block: int,
    regs_per_thread: int,
    shared_per_block: int,
) -> Occupancy:
    threads_per_block = max(1, threads_per_block)
    limits = {
        "blocks": spec.max_blocks_per_cu,
        "threads": spec.max_threads_per_cu // threads_per_block,
    }
    if regs_per_thread > 0:
        limits["registers"] = spec.regfile_per_cu // (
            regs_per_thread * threads_per_block
        )
    if shared_per_block > 0:
        limits["shared"] = spec.shared_mem_per_cu // shared_per_block
    limiter = min(limits, key=limits.get)
    blocks = max(0, min(limits.values()))
    warps = blocks * -(-threads_per_block // spec.warp_width)
    return Occupancy(
        blocks_per_cu=blocks,
        warps_per_cu=warps,
        active_threads_per_cu=blocks * threads_per_block,
        limiter=limiter if blocks else "does-not-fit",
    )
