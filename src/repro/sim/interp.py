"""SIMT functional interpreter over the virtual ISA.

Execution model: one *batch-wide* masked vector per group of thread
blocks.  The reconvergence-stack mechanism is width-agnostic, so running
all warps of B homogeneous blocks in lockstep produces bit-identical
functional results while letting every ALU instruction be a single
numpy op over the whole batch (the vectorize-don't-loop idiom of the
HPC guides).  Geometry vectors gain a per-block ``ctaid`` lane, and the
Python dispatch loop is amortized over B blocks per interpreter pass.

Per-warp costs are recovered exactly: an instruction executed under mask
``m`` is *issued* by every 32-lane group with an active lane, so its
issue cost is ``cost * active_groups(m)`` per block — identical to
executing blocks one at a time.  Memory instructions are costed per
hardware warp group (coalescing and bank conflicts are per-warp
phenomena) through :class:`~repro.sim.memsys.MemorySystem`.

Batching invariants (the bit-identity contract, see DESIGN.md):

* **The batch is the unit of memory charging** — every warp row of a
  memory visit is coalesced (:func:`~repro.arch.coalesce.row_segments`),
  bank-resolved (:func:`~repro.arch.banks.bank_replays`) or reduced to
  its texture lines / constant addresses in one vectorized pass at
  record time.  At batch end :meth:`_replay` hands every recorded
  visit to :meth:`~repro.sim.memsys.MemorySystem.charge` in one call.
  It resolves all L1/L2, texture and constant accesses as one
  block-major stream, ordered by (block, visit, row, line), with one
  stack-distance pass per cache level
  (:func:`~repro.arch.caches.lru_stream`): L1 and the texture and
  constant caches are keyed per CU (blocks ``j`` and ``j + n_cu`` of a
  batch share one), L2 is shared and sees only L1 load misses plus all
  stores.  Caches therefore end exactly as under per-block execution.
  It returns a (visit × block) cost matrix.  Row costs are sums of
  integer-valued latencies (a test holds every spec to that), so
  per-block sums are exact in any order — except texture rows, whose
  ``0.2 * tx_cycles`` term is folded in row order.  ``region_counts``
  gets one ``Counter.update`` per batch in stream order, and
  ``dram_bytes`` one whole-byte sum per CU.
* **Per-block cost folds** — the fold orders of per-block execution are
  kept: ``comp``/``memc`` accumulate per block in visit order (a
  sequential ``np.cumsum`` down the visit axis), ``cyc_hist[key]`` in
  (block, visit) order with a new key entering at its first active
  (block, visit), and ``comp_cycles``/``mem_cycles[cu]`` in block
  order, so every last ulp of the timing model matches.
* **Per-block divergence bookkeeping** — EXIT kills only the blocks
  with lanes in the exiting frame; barriers check convergence per
  participating block; dual-issue pairing state is tracked per block.

The one assumption batching adds is that blocks of a launch do not
communicate through global memory mid-kernel (CUDA/OpenCL make no
inter-block ordering guarantee, so such kernels are racy anyway); the
property suite cross-checks batched against per-block execution.

Barriers become no-ops under block-lockstep (the interpreter checks the
mask is converged, which the KIR validator already guarantees), and
warp-synchronous idioms remain correct because block-lockstep is
strictly stronger than warp-lockstep.
"""
from __future__ import annotations

import os
from collections import Counter

import numpy as np

from ..arch.banks import bank_replays
from ..arch.coalesce import row_segments
from ..arch.specs import DeviceSpec
from ..kir.types import AddrSpace, Scalar, np_dtype, sizeof
from ..ptx.instructions import Imm, Instr, Reg
from ..ptx.isa import Op, stats_key
from ..ptx.module import PTXKernel
from .memory import FlatMemory
from .memsys import MemorySystem

__all__ = ["LaunchStats", "run_grid", "SimulationError"]

_SFU_OPS = {Op.SQRT, Op.RSQRT, Op.SIN, Op.COS, Op.EX2, Op.LG2}

_CMP = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}

#: lockstep vector width target: blocks are batched until their combined
#: lane count reaches this, amortizing the per-instruction Python cost
_BATCH_LANES = 32768
_BATCH_CAP = 64


#: raw $REPRO_SIM_BATCH values already warned about (warn once per
#: value; this helper runs on every kernel launch)
_BATCH_ENV_WARNED: set = set()


def _batch_size(width: int, blocks: int) -> int:
    env = os.environ.get("REPRO_SIM_BATCH")
    if env:
        try:
            forced = int(env)
        except ValueError:
            forced = 0
        if forced > 0:
            return max(1, min(forced, blocks))
        if env not in _BATCH_ENV_WARNED:
            _BATCH_ENV_WARNED.add(env)
            from ..telemetry import log

            log.warn(
                "sim.batch_env",
                f"ignoring REPRO_SIM_BATCH={env!r} (need a positive "
                "integer); using the lane-budget default",
            )
    return max(1, min(_BATCH_CAP, _BATCH_LANES // max(width, 1), blocks))


class SimulationError(RuntimeError):
    pass


class LaunchStats:
    """Dynamic execution statistics of one kernel launch."""

    def __init__(self, n_cu: int):
        self.comp_cycles = np.zeros(n_cu, dtype=np.float64)
        self.mem_cycles = np.zeros(n_cu, dtype=np.float64)
        self.dyn_hist: Counter = Counter()
        #: issue/latency cycles charged per Table-V row (profiler feed)
        self.cyc_hist: Counter = Counter()
        self.warp_instructions = 0
        self.mem_instructions = 0
        self.blocks = 0
        self.barriers = 0
        #: per-warp memory-level-parallelism credit from straight-line
        #: code length (unrolled bodies issue more independent loads)
        self.ilp_factor = 1.0


class _SharedBatch:
    """Shared memory for a batch of blocks, one segment per block.

    Reproduces :class:`~repro.sim.memory.FlatMemory` semantics exactly
    per block — including the modulo wrap of out-of-range addresses
    into the block's own segment — by giving every block a stride-
    aligned slice of one flat byte buffer.
    """

    def __init__(self, nbytes: int, batch: int):
        # FlatMemory pads its buffer by 8 bytes; the per-block view size
        # (and therefore the wrap modulus) must match it bit-for-bit
        self.nb = int(nbytes) + 8
        self.stride = -(-self.nb // 8) * 8
        self.buf = np.zeros(batch * self.stride, dtype=np.uint8)
        self._views: dict = {}

    def _view(self, scalar: Scalar) -> np.ndarray:
        v = self._views.get(scalar)
        if v is None:
            size = sizeof(scalar)
            usable = (self.buf.size // size) * size
            v = self.buf[:usable].view(np_dtype(scalar))
            self._views[scalar] = v
        return v

    def _index(self, addrs: np.ndarray, blk: np.ndarray, size: int) -> np.ndarray:
        idx = (addrs // size) % (self.nb // size)  # per-block wrap
        return blk * (self.stride // size) + idx

    def load(self, addrs: np.ndarray, blk: np.ndarray, scalar: Scalar) -> np.ndarray:
        size = sizeof(scalar)
        return self._view(scalar)[self._index(addrs, blk, size)]

    def store(
        self, addrs: np.ndarray, blk: np.ndarray, values: np.ndarray, scalar: Scalar
    ) -> None:
        size = sizeof(scalar)
        # same-address conflicts resolve to the last lane, like FlatMemory
        self._view(scalar)[self._index(addrs, blk, size)] = values


class GridRunner:
    def __init__(
        self,
        kernel: PTXKernel,
        spec: DeviceSpec,
        memsys: MemorySystem,
        mem: FlatMemory,
        args: dict,
        grid: tuple,
        block: tuple,
        batch_blocks: int | None = None,
    ):
        self.k = kernel
        self.spec = spec
        self.memsys = memsys
        self.mem = mem
        self.args = args
        self.grid = grid
        self.block = block
        self.WW = spec.warp_width
        self.batch_blocks = batch_blocks
        self.stats = LaunchStats(spec.compute_units)
        # launch preparation is a pure function of (kernel, device,
        # block shape); benchmarks relaunch the same compiled kernel
        # many times, so the products are memoized on the kernel object
        # (read-only at run time, hence safe to share between runners)
        cache = kernel.__dict__.setdefault("_interp_prep", {})
        ck = (spec.name, block)
        prep = cache.get(ck)
        if prep is None:
            self._prepare_geometry()
            self._prepare_code()
            ilp = self._static_ilp()
            cache[ck] = (
                self.width,
                self.ngroups_full,
                self.tid,
                self.mask0,
                self.instrs,
                self.n_instr,
                self.target_pc,
                self.reconv_pc,
                self.cost,
                self.hkey,
                self.imm_cache,
                self.fp_guard,
                self._fp_err,
                ilp,
            )
        else:
            (
                self.width,
                self.ngroups_full,
                self.tid,
                self.mask0,
                self.instrs,
                self.n_instr,
                self.target_pc,
                self.reconv_pc,
                self.cost,
                self.hkey,
                self.imm_cache,
                self.fp_guard,
                self._fp_err,
                ilp,
            ) = prep
        self.stats.ilp_factor = ilp
        # ``is_full`` frames only imply an all-true mask when the block
        # size is a whole number of warps (no padding lanes)
        self._m0full = bool(self.mask0.all())

    # -- preparation -----------------------------------------------------
    def _prepare_geometry(self) -> None:
        bx, by, bz = self.block
        tpb = bx * by * bz
        # pad block width to a whole number of hardware warps
        self.width = -(-tpb // self.WW) * self.WW
        self.ngroups_full = self.width // self.WW
        lin = np.arange(self.width, dtype=np.uint32)
        self.tid = (lin % bx, (lin // bx) % by, lin // (bx * by))
        self.mask0 = lin < tpb

    def _prepare_code(self) -> None:
        """Pre-resolve labels, costs, and histogram keys per instruction."""
        instrs = self.k.instrs
        labels = self.k.label_map()
        t = self.spec.timing
        self.instrs = instrs
        self.n_instr = len(instrs)
        self.target_pc = [0] * self.n_instr
        self.reconv_pc = [0] * self.n_instr
        self.cost = [0.0] * self.n_instr
        self.hkey = [""] * self.n_instr
        self.imm_cache: list = [None] * self.n_instr
        # ops that legitimately produce inf/NaN run under a scoped
        # errstate; integer ops do not, so genuine overflow bugs warn
        self.fp_guard = [False] * self.n_instr
        self._fp_err = dict(
            divide="ignore", invalid="ignore", over="ignore", under="ignore"
        )
        for pc, i in enumerate(instrs):
            if i.op is Op.BRA:
                self.target_pc[pc] = labels[i.target]
                if i.reconv is not None:
                    self.reconv_pc[pc] = labels[i.reconv]
            c = t.alu_cycles
            if i.op in _SFU_OPS:
                c *= t.sfu_factor
            elif i.dtype is Scalar.F64 and i.op is not Op.LD and i.op is not Op.ST:
                c *= 8.0
            elif i.op in (Op.DIV, Op.REM) and i.dtype not in (
                Scalar.F32,
                Scalar.F64,
            ):
                c *= t.idiv_factor
            if i.op is Op.MOV and i.sreg is None and i.srcs and not isinstance(i.srcs[0], Imm):
                c *= t.reg_mov_factor
            self.cost[pc] = c
            self.hkey[pc] = stats_key(i.op, i.space)
            self.fp_guard[pc] = (
                i.dtype in (Scalar.F32, Scalar.F64)
                or i.op in _SFU_OPS
                or (
                    i.op is Op.CVT
                    and any(
                        getattr(s, "dtype", None) in (Scalar.F32, Scalar.F64)
                        for s in i.srcs
                    )
                )
            )
            self.imm_cache[pc] = tuple(
                np_dtype(s.dtype)(s.value) if isinstance(s, Imm) else None
                for s in i.srcs
            )

    def _static_ilp(self) -> float:
        """MLP credit from straight-line body length.

        A warp overlaps the independent loads inside one basic-block
        run; unrolled kernels have much longer runs (this is the
        documented reason unrolling helps memory-bound GPU code even
        when occupancy drops).  Scale: +1x per ~256 instructions of
        average back-edge-free run, capped at 2x.
        """
        real = [i for i in self.instrs if i.op is not Op.LABEL]
        loops = sum(
            1
            for pc, i in enumerate(self.instrs)
            if i.op is Op.BRA
            and self.target_pc[pc] <= pc
        )
        run = len(real) / (loops + 1)
        return float(min(2.0, 1.0 + run / 384.0))

    # -- register file -----------------------------------------------------
    def _read(self, regs: dict, operand, pc: int, slot: int):
        imm = self.imm_cache[pc][slot]
        if imm is not None:
            return imm
        arr = regs.get(operand.idx)
        if arr is None:
            arr = np.zeros(self._lanes, dtype=np_dtype(operand.dtype))
            regs[operand.idx] = arr
        return arr

    def _write(self, regs: dict, dst: Reg, val, mask, full: bool):
        dt = np_dtype(dst.dtype)
        arr = regs.get(dst.idx)
        if arr is None:
            arr = np.zeros(self._lanes, dtype=dt)
            regs[dst.idx] = arr
        if np.ndim(val) == 0:
            if full:
                arr[:] = val
            else:
                arr[mask] = dt(val)
        else:
            if val.dtype != dt:
                val = val.astype(dt)
            if full:
                arr[:] = val
            else:
                arr[mask] = val[mask]

    def _ngr_b(self, mask: np.ndarray, nb: int) -> np.ndarray:
        """Active 32-lane groups per block of the batch."""
        return (
            mask.reshape(nb, self.ngroups_full, self.WW)
            .any(axis=2)
            .sum(axis=1)
        )

    def _ngr_list(self, mask: np.ndarray, nb: int) -> list:
        """Per-block active-group counts as a plain Python list.

        Frames cache this (plus its sum) so the per-instruction loop
        never touches numpy reductions for cost bookkeeping.
        """
        return self._ngr_b(mask, nb).tolist()

    # -- ALU semantics -----------------------------------------------------
    def _alu(self, i: Instr, a, b=None, c=None):
        op = i.op
        if op is Op.ADD:
            return a + b
        if op is Op.SUB:
            return a - b
        if op is Op.MUL:
            return a * b
        if op is Op.MAD or op is Op.FMA:
            return a * b + c
        if op is Op.DIV:
            if i.dtype in (Scalar.F32, Scalar.F64):
                return a / b
            safe = np.where(b == 0, 1, b)
            return np.where(b == 0, 0, a // safe) if np.ndim(b) else (
                a // b if b else a * 0
            )
        if op is Op.REM:
            if np.ndim(b) == 0:
                return a % b if b else a * 0
            safe = np.where(b == 0, 1, b)
            return np.where(b == 0, 0, a % safe)
        if op is Op.MIN:
            return np.minimum(a, b)
        if op is Op.MAX:
            return np.maximum(a, b)
        if op is Op.AND:
            return np.logical_and(a, b) if i.dtype is Scalar.PRED else a & b
        if op is Op.OR:
            return np.logical_or(a, b) if i.dtype is Scalar.PRED else a | b
        if op is Op.XOR:
            return np.logical_xor(a, b) if i.dtype is Scalar.PRED else a ^ b
        if op is Op.SHL:
            m = 63 if i.dtype in (Scalar.S64, Scalar.U64) else 31
            return a << (b & m if np.ndim(b) else int(b) & m)
        if op is Op.SHR:
            m = 63 if i.dtype in (Scalar.S64, Scalar.U64) else 31
            return a >> (b & m if np.ndim(b) else int(b) & m)
        if op is Op.NEG:
            return -a
        if op is Op.NOT:
            return np.logical_not(a) if i.dtype is Scalar.PRED else ~a
        if op is Op.ABS:
            return np.abs(a)
        if op is Op.SQRT:
            # sqrt(negative) is NaN on real CUDA/OpenCL; propagate it
            return np.sqrt(a)
        if op is Op.RSQRT:
            return 1.0 / np.sqrt(a)
        if op is Op.SIN:
            return np.sin(a)
        if op is Op.COS:
            return np.cos(a)
        if op is Op.EX2:
            # overflow saturates to +inf, exactly like the hardware SFU
            return np.exp2(a)
        if op is Op.LG2:
            # lg2(0) = -inf, lg2(negative) = NaN — no clamping
            return np.log2(a)
        if op is Op.FLOOR:
            return np.floor(a)
        if op is Op.CVT:
            dt = np_dtype(i.dtype)
            return dt(a) if np.ndim(a) == 0 else a.astype(dt)
        raise SimulationError(f"no ALU semantics for {op}")  # pragma: no cover

    # -- batch execution ---------------------------------------------------
    def run_batch(self, bidxs: list, cus: list) -> None:
        """Run a batch of consecutive blocks in lockstep.

        The functional pass interprets all blocks at once and *records*
        every cost-bearing visit; :meth:`_replay` then charges the
        memory system and the cycle accounting per block in linear
        block order, so the result is bit-identical to running the
        blocks one at a time (see the module docstring).
        """
        spec = self.spec
        t = spec.timing
        stats = self.stats
        hist = stats.dyn_hist
        WW = self.WW
        instrs = self.instrs
        n = self.n_instr
        nb = len(bidxs)
        width = self.width
        lanes = nb * width
        self._lanes = lanes

        u32 = np.uint32
        geom = {
            "tid.x": np.tile(self.tid[0], nb),
            "tid.y": np.tile(self.tid[1], nb),
            "tid.z": np.tile(self.tid[2], nb),
            "ctaid.x": np.repeat(np.asarray([b[0] for b in bidxs], dtype=u32), width),
            "ctaid.y": np.repeat(np.asarray([b[1] for b in bidxs], dtype=u32), width),
            "ctaid.z": np.repeat(np.asarray([b[2] for b in bidxs], dtype=u32), width),
            "ntid.x": u32(self.block[0]),
            "ntid.y": u32(self.block[1]),
            "ntid.z": u32(self.block[2]),
            "nctaid.x": u32(self.grid[0]),
            "nctaid.y": u32(self.grid[1]),
            "nctaid.z": u32(self.grid[2]),
        }
        #: per-lane local block index, for shared-memory segment routing
        self._blk = np.repeat(np.arange(nb, dtype=np.int64), width)
        shared = _SharedBatch(max(self.k.resources.shared_bytes, 64), nb)
        regs: dict[int, np.ndarray] = {}
        local: dict[int, np.ndarray] = {}
        mask0 = np.tile(self.mask0, nb)
        ngr0 = self._ngr_list(mask0, nb)
        live = mask0.copy()
        # frames: [mask, pc, reconv_pc, ngr_list, ngr_total, is_full]
        frames: list[list] = [[mask0, 0, n + 1, ngr0, sum(ngr0), True]]
        prev_mad = [False] * nb
        dual = t.dual_issue_efficiency
        #: recorded visits for the per-block replay (see _replay)
        visits: list[tuple] = []
        barriers = 0
        steps = 0
        # hot-loop locals; dynamic-instruction counts accumulate per pc
        # and flush into the Counter once per batch (integer sums, so
        # the flush order cannot change any value)
        hkey = self.hkey
        costl = self.cost
        tpc = self.target_pc
        imm_cache = self.imm_cache
        fp_guard = self.fp_guard
        fp_err = self._fp_err
        alu_c = t.alu_cycles
        dyn = [0] * n
        wi = 0
        bra_n = 0

        while frames:
            frame = frames[-1]
            mask, pc, rec, ngr_l, tot, full = frame
            if pc >= n:
                break
            if pc == rec and len(frames) > 1:
                frames.pop()
                continue
            steps += 1
            if steps > 80_000_000:  # pragma: no cover - runaway guard
                raise SimulationError("runaway kernel (80M batch steps)")
            i = instrs[pc]
            op = i.op
            if op is Op.LABEL:
                frame[1] = pc + 1
                continue
            if op is Op.EXIT:
                # kill every block with a lane in this frame, from every
                # frame — the batched equivalent of the per-block break
                killmask = np.repeat(
                    np.asarray([g > 0 for g in ngr_l]), width
                )
                live &= ~killmask
                kept = []
                for f in frames:
                    f[0] = f[0] & ~killmask
                    if f[0].any():
                        f[3] = self._ngr_list(f[0], nb)
                        f[4] = sum(f[3])
                        f[5] = False
                        kept.append(f)
                frames = kept
                continue

            active = mask
            afull = full
            if i.pred is not None:
                p, sense = i.pred
                pv = regs.get(p.idx)
                if pv is None:
                    pv = regs[p.idx] = np.zeros(lanes, dtype=bool)
                active = (mask & pv) if sense else (mask & ~pv)
                afull = False

            if op is Op.BRA:
                wi += tot
                bra_n += tot
                visits.append(("bra", "bra", ngr_l, None))
                if i.pred is None:
                    frame[1] = tpc[pc]
                    continue
                taken = active
                any_taken = taken.any()
                ntaken = mask & ~taken
                any_nt = ntaken.any()
                if not any_taken:
                    frame[1] = pc + 1
                    continue
                if not any_nt:
                    frame[1] = tpc[pc]
                    continue
                rpc = self.reconv_pc[pc]
                frame[1] = rpc
                nl = self._ngr_list(ntaken, nb)
                tl = self._ngr_list(taken, nb)
                frames.append([ntaken, pc + 1, rpc, nl, sum(nl), False])
                frames.append([taken, tpc[pc], rpc, tl, sum(tl), False])
                continue

            if op is Op.BAR:
                # block-lockstep: check per-block convergence, charge,
                # move on (blocks in *other* frames sync at their own
                # visit of this barrier)
                stray = live & ~mask
                if stray.any():
                    part = np.asarray([g > 0 for g in ngr_l])
                    diverged = part & (self._ngr_b(stray, nb) > 0)
                    if diverged.any():
                        raise SimulationError(
                            f"kernel {self.k.name!r}: barrier under divergence"
                        )
                barriers += sum(1 for g in ngr_l if g)
                visits.append(("bar", "bar", ngr_l, None))
                frame[1] = pc + 1
                continue

            wi += tot
            dyn[pc] += tot
            hk = hkey[pc]

            if op is Op.MOV:
                if i.sreg is not None:
                    val = geom[i.sreg]
                    visits.append(("c", hk, ngr_l, alu_c))
                else:
                    val = self._read(regs, i.srcs[0], pc, 0)
                    # reg-to-reg movs are mostly renamed away by ptxas
                    visits.append(("c", hk, ngr_l, costl[pc]))
                self._write(regs, i.dst, val, active, afull)
            elif op is Op.LD and i.space is AddrSpace.PARAM:
                self._write(regs, i.dst, self.args[i.param], active, afull)
                visits.append(("c", hk, ngr_l, alu_c))
            elif op is Op.LD and i.space is AddrSpace.LOCAL:
                off = int(i.srcs[0].value)
                slot = local.get(off)
                if slot is None:
                    slot = local[off] = np.zeros(
                        lanes, dtype=np_dtype(i.dtype)
                    )
                self._write(regs, i.dst, slot, active, afull)
                visits.append(("m", hk, ngr_l, ("local", sizeof(i.dtype))))
                stats.mem_instructions += tot
            elif op is Op.ST and i.space is AddrSpace.LOCAL:
                off = int(i.srcs[0].value)
                val = self._read(regs, i.srcs[1], pc, 1)
                slot = local.get(off)
                if slot is None:
                    slot = local[off] = np.zeros(
                        lanes, dtype=np_dtype(i.dtype)
                    )
                if np.ndim(val) == 0:
                    slot[active] = val
                else:
                    slot[active] = val[active]
                visits.append(("m", hk, ngr_l, ("local", sizeof(i.dtype))))
                stats.mem_instructions += tot
            elif op is Op.LD or op is Op.ST or op is Op.TEX:
                charge = self._memory_access(
                    regs, i, pc, shared, active, afull, nb
                )
                visits.append(("m", hk, ngr_l, charge))
                stats.mem_instructions += tot
            elif op is Op.SETP:
                a = self._read(regs, i.srcs[0], pc, 0)
                b = self._read(regs, i.srcs[1], pc, 1)
                val = _CMP[i.cmp](a, b)
                if np.ndim(val) == 0:
                    val = np.full(lanes, bool(val))
                self._write(regs, i.dst, val, active, afull)
                visits.append(("c", hk, ngr_l, alu_c))
            elif op is Op.SELP:
                a = self._read(regs, i.srcs[0], pc, 0)
                b = self._read(regs, i.srcs[1], pc, 1)
                p = self._read(regs, i.srcs[2], pc, 2)
                self._write(regs, i.dst, np.where(p, a, b), active, afull)
                visits.append(("c", hk, ngr_l, alu_c))
            else:
                # inlined _read: register arrays resolve with one dict
                # probe per operand (immediates come pre-converted)
                imms = imm_cache[pc]
                srcs = []
                for j, s in enumerate(i.srcs):
                    v = imms[j]
                    if v is None:
                        v = regs.get(s.idx)
                        if v is None:
                            v = regs[s.idx] = np.zeros(
                                lanes, dtype=np_dtype(s.dtype)
                            )
                    srcs.append(v)
                if fp_guard[pc]:
                    with np.errstate(**fp_err):
                        val = self._alu(i, *srcs)
                else:
                    val = self._alu(i, *srcs)
                self._write(regs, i.dst, val, active, afull)
                cost = costl[pc]
                if (
                    dual > 0
                    and op is Op.MUL
                    and i.dtype is Scalar.F32
                    and any(prev_mad)
                ):
                    paired = cost * (1.0 - dual)
                    visits.append(
                        (
                            "C",
                            hk,
                            ngr_l,
                            [
                                (paired if pm else cost) * g
                                for pm, g in zip(prev_mad, ngr_l)
                            ],
                        )
                    )
                else:
                    visits.append(("c", hk, ngr_l, cost))
                # pairing looks through movs/loads, and is per block
                if dual > 0:
                    flag = op is Op.MAD or op is Op.FMA
                    prev_mad = [
                        flag if g else pm for g, pm in zip(ngr_l, prev_mad)
                    ]

            frame[1] = pc + 1

        stats.warp_instructions += wi
        if bra_n:
            hist["bra"] += bra_n
        for p2 in range(n):
            v = dyn[p2]
            if v:
                hist[hkey[p2]] += v
        stats.barriers += barriers
        self._replay(visits, nb, cus)

    def _memory_access(
        self, regs, i: Instr, pc: int, shared, active, afull, nb: int
    ) -> tuple:
        """Perform the functional memory effect; record its charge.

        Returns the visit's record for
        :meth:`~repro.sim.memsys.MemorySystem.charge`: per-warp
        coalescing, bank conflicts, texture lines and constant lookups
        are resolved here for all rows at once, and the batch-end
        :meth:`_replay` charges every record of the batch together.
        """
        size = sizeof(i.dtype)
        WW = self.WW
        lanes = self._lanes
        if i.op is Op.TEX:
            idx = self._read(regs, i.srcs[0], pc, 0)
            base = int(self.args[i.param])
            if np.ndim(idx) == 0:
                idx = np.full(lanes, idx)
            addr_full = idx.astype(np.int64) * size + base
        else:
            a = self._read(regs, i.srcs[0], pc, 0)
            if np.ndim(a) == 0:
                a = np.full(lanes, a)
            addr_full = a.astype(np.int64)

        # fully-active visits skip the mask compaction entirely — the
        # compacted address list IS the full lane vector ("full" frames
        # only have every lane active when the block has no padding)
        afull = afull and self._m0full
        addrs = addr_full if afull else addr_full[active]
        space = i.space
        rows = addr_full.reshape(-1, WW)
        act = None if afull else active.reshape(-1, WW)
        memsys = self.memsys
        if i.op is Op.TEX:
            charge = ("tex",) + memsys.texture_rows(rows, act, size)
        elif space is AddrSpace.CONST:
            charge = ("const",) + memsys.const_rows(rows, act)
        elif space is AddrSpace.SHARED:
            charge = self._shared_charge(rows, act, nb)
        else:
            charge = ("global",) + row_segments(self.spec, rows, act, size) + (
                i.op is Op.ST,
            )

        if i.op is Op.TEX:
            val = self.mem.load(addrs, i.dtype)
            dt = np_dtype(i.dtype)
            arr = regs.get(i.dst.idx)
            if arr is None:
                arr = regs[i.dst.idx] = np.zeros(lanes, dtype=dt)
            if afull:
                arr[:] = val
            else:
                arr[active] = val
            return charge

        if space is AddrSpace.SHARED:
            blk = self._blk if afull else self._blk[active]
            if i.op is Op.ST:
                val = self._read(regs, i.srcs[1], pc, 1)
                if np.ndim(val) == 0:
                    val = np.full(lanes, val, dtype=np_dtype(i.dtype))
                shared.store(addrs, blk, val if afull else val[active], i.dtype)
            else:
                out = shared.load(addrs, blk, i.dtype)
                dt = np_dtype(i.dtype)
                arr = regs.get(i.dst.idx)
                if arr is None:
                    arr = regs[i.dst.idx] = np.zeros(lanes, dtype=dt)
                if afull:
                    arr[:] = out
                else:
                    arr[active] = out
            return charge

        if i.op is Op.ST:
            val = self._read(regs, i.srcs[1], pc, 1)
            if np.ndim(val) == 0:
                val = np.full(lanes, val, dtype=np_dtype(i.dtype))
            self.mem.store(addrs, val if afull else val[active], i.dtype)
        else:
            out = self.mem.load(addrs, i.dtype)
            dt = np_dtype(i.dtype)
            arr = regs.get(i.dst.idx)
            if arr is None:
                arr = regs[i.dst.idx] = np.zeros(lanes, dtype=dt)
            if afull:
                arr[:] = out
            else:
                arr[active] = out
        return charge

    def _shared_charge(self, rows, act, nb: int) -> tuple:
        """Bank replays of every warp row, pre-summed per block."""
        issued = np.ones(rows.shape, dtype=bool) if act is None else act
        requests = issued.any(axis=1).reshape(nb, -1).sum(axis=1)
        # rows without an active lane report one pass: zero extra
        extra = (bank_replays(self.spec, rows, act) - 1).reshape(nb, -1)
        return ("shared", requests, extra.sum(axis=1))

    def _replay(self, visits: list, nb: int, cus: list) -> None:
        """Fold the batch's recorded visits into the launch statistics.

        The memory system charges every memory visit of every block in
        one call (:meth:`~repro.sim.memsys.MemorySystem.charge`), which
        leaves cache state exactly as block-by-block execution would.
        The float folds then keep per-block execution's summation order:
        ``comp``/``memc`` accumulate per block in visit order (sequential
        ``np.cumsum`` down the visit axis of a (visit × block) matrix),
        ``cyc_hist[key]`` folds in (block, visit) order, a new key
        entering at its first active (block, visit), and the per-CU
        totals fold in block order.
        """
        stats = self.stats
        stats.blocks += nb
        if not visits:
            return
        alu = self.spec.timing.alu_cycles
        # frames share their ngr list between visits: convert each once
        ids = np.array([id(v[2]) for v in visits])
        _, first, pick = np.unique(ids, return_index=True, return_inverse=True)
        ngr = np.array([visits[k][2] for k in first.tolist()], dtype=np.int64)[pick]
        of: dict = {"c": [], "C": [], "m": [], "bra": [], "bar": []}
        for k, v in enumerate(visits):
            of[v[0]].append(k)
        comp = np.zeros(ngr.shape)
        memc = np.zeros(ngr.shape)
        c = of["c"]
        if c:
            comp[c] = np.array([visits[k][3] for k in c])[:, None] * ngr[c]
        if of["C"]:
            comp[of["C"]] = [visits[k][3] for k in of["C"]]
        flow = of["bra"] + of["bar"]
        comp[flow] = alu * ngr[flow]
        m = of["m"]
        if m:
            memc[m] = self.memsys.charge(
                [visits[k][3] for k in m], ngr[m], cus, self.ngroups_full
            )
        comp = np.cumsum(comp, axis=0)
        memc = np.cumsum(memc, axis=0)
        # each visit adds (comp + memc) - (its c0), as per-block code does;
        # branches and barriers add their issue cost directly
        delta = np.diff(comp + memc, axis=0, prepend=0.0)
        delta[flow] = alu * ngr[flow]

        # cyc_hist: gather each key's active entries in (block, visit)
        # order and fold them onto its running value
        code: dict = {}
        keys = np.array([code.setdefault(v[1], len(code)) for v in visits])
        live = (ngr > 0).T
        vals = delta.T[live]
        kcol = np.broadcast_to(keys, live.shape)[live]
        order = np.argsort(kcol, kind="stable")
        kcol = kcol[order]
        bounds = np.flatnonzero(np.diff(kcol, prepend=-1)).tolist() + [kcol.size]
        names = list(code)
        groups = sorted(
            (order[lo], kcol[lo], lo, hi) for lo, hi in zip(bounds, bounds[1:])
        )
        cyc = stats.cyc_hist
        for _, k, lo, hi in groups:
            key = names[k]
            run = np.concatenate(([cyc.get(key, 0.0)], vals[order[lo:hi]]))
            cyc[key] = float(np.cumsum(run)[-1])
        for cu, cv, mv in zip(cus, comp[-1].tolist(), memc[-1].tolist()):
            stats.comp_cycles[cu] += cv
            stats.mem_cycles[cu] += mv

    def run(self) -> LaunchStats:
        gx, gy, gz = self.grid
        n_cu = self.spec.compute_units
        bidxs = [
            (bx, by, bz)
            for bz in range(gz)
            for by in range(gy)
            for bx in range(gx)
        ]
        nblocks = len(bidxs)
        if self.batch_blocks is not None:
            batch = max(1, min(int(self.batch_blocks), nblocks))
        else:
            batch = _batch_size(self.width, nblocks)
        for lo in range(0, nblocks, batch):
            chunk = bidxs[lo : lo + batch]
            cus = [(lo + j) % n_cu for j in range(len(chunk))]
            self.run_batch(chunk, cus)
        return self.stats


def run_grid(
    kernel: PTXKernel,
    spec: DeviceSpec,
    memsys: MemorySystem,
    mem: FlatMemory,
    args: dict,
    grid: tuple,
    block: tuple,
    batch_blocks: int | None = None,
) -> LaunchStats:
    """Execute ``kernel`` over the ND-range; returns dynamic statistics."""
    return GridRunner(
        kernel, spec, memsys, mem, args, grid, block, batch_blocks=batch_blocks
    ).run()
