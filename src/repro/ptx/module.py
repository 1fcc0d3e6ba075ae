"""Kernel and module containers for compiled code."""
from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Iterable, Optional

from ..kir.stmt import Kernel as KirKernel
from ..kir.types import AddrSpace, Scalar
from .instructions import Instr, Reg
from .isa import Op

__all__ = ["PTXParam", "PTXKernel", "PTXModule", "ResourceUsage"]


@dataclasses.dataclass(frozen=True)
class PTXParam:
    name: str
    dtype: Scalar
    is_pointer: bool
    space: AddrSpace = AddrSpace.GLOBAL  # pointee space for pointers


@dataclasses.dataclass
class ResourceUsage:
    """Per-thread / per-block resource footprint reported by ptxas.

    Occupancy and the Cell/BE "ABT" failures in Table VI both key off
    these numbers.
    """

    registers: int = 0
    spill_bytes: int = 0  # per-thread .local spill slots
    shared_bytes: int = 0  # static __shared__ per block
    uses_texture: bool = False


@dataclasses.dataclass
class PTXKernel:
    name: str
    params: list[PTXParam]
    instrs: list[Instr]
    resources: ResourceUsage = dataclasses.field(default_factory=ResourceUsage)
    #: shared-space declarations: name -> (elem scalar, length)
    shared_decls: dict = dataclasses.field(default_factory=dict)
    #: which front end produced this code ("nvopencc" / "clc")
    producer: str = ""
    #: dialect of the source kernel ("cuda" / "opencl")
    dialect: str = ""
    #: number of virtual registers before allocation (for diagnostics)
    virtual_regs: int = 0
    #: macros the kernel was compiled with (e.g. WARP_SIZE); informational
    defines: dict = dataclasses.field(default_factory=dict)

    def label_map(self) -> dict[str, int]:
        """Map label name -> instruction index (labels are pseudo-ops)."""
        return {
            i.label: pc for pc, i in enumerate(self.instrs) if i.op is Op.LABEL
        }

    def real_instrs(self) -> Iterable[Instr]:
        """Instructions excluding LABEL pseudo-ops."""
        return (i for i in self.instrs if i.op is not Op.LABEL)

    def static_size(self) -> int:
        return sum(1 for _ in self.real_instrs())

    def max_reg_index(self) -> int:
        hi = -1
        for i in self.instrs:
            for r in i.regs_read():
                hi = max(hi, r.idx)
            if i.dst is not None:
                hi = max(hi, i.dst.idx)
        return hi

    def pointer_params(self) -> list[PTXParam]:
        return [p for p in self.params if p.is_pointer]

    def content_digest(self) -> str:
        """Stable digest of the executable content, memoized on self.

        Covers everything that affects what a launch computes (code,
        params, resources, shared decls, dialect) and nothing that does
        not (producer, defines, diagnostics).  The memoized value
        travels in ``__dict__`` through the compile cache's pickled
        entries, so sweeps pay one digest per unique compile; the launch
        memo keys on it.
        """
        d = self.__dict__.get("_content_digest")
        if d is None:
            blob = pickle.dumps(
                (
                    self.name,
                    self.params,
                    self.instrs,
                    self.resources,
                    sorted(self.shared_decls.items()),
                    self.dialect,
                ),
                protocol=4,
            )
            d = hashlib.blake2b(blob, digest_size=16).hexdigest()
            self.__dict__["_content_digest"] = d
        return d


@dataclasses.dataclass
class PTXModule:
    """A compiled translation unit: one or more kernels plus build info."""

    kernels: dict
    producer: str = ""
    source: Optional[KirKernel] = None
    build_log: list = dataclasses.field(default_factory=list)

    def kernel(self, name: str) -> PTXKernel:
        return self.kernels[name]

    def __iter__(self):
        return iter(self.kernels.values())
