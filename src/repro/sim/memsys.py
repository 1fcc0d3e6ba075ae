"""The memory system: per-CU caches + DRAM cost accounting.

The interpreter charges each block's share of a warp memory instruction
with one call: ``charge_*`` for stateless paths (shared banks, cache-less
global), whose rows it has already resolved and summed, and ``walk_*``
for cached paths, which touch cache state row by row in order.  The
one-warp ``access_*`` methods route through the same code.  Each call
updates cache state, returns the latency in core cycles, and accrues
DRAM traffic.  Costs follow a simple serialization model: the slowest
miss level sets the base latency and every extra transaction adds
``tx_cycles``.
"""
from __future__ import annotations

import numpy as np

from ..arch.banks import bank_conflicts
from ..arch.caches import LRUCache, null_cache
from ..arch.coalesce import coalesce, row_distinct, row_lines, segments_lines
from ..arch.specs import DeviceSpec

__all__ = ["MemorySystem", "AccessCost"]

#: texture-cache line and constant-cache line, in bytes
_TEX_LINE = 32
_CONST_LINE = 64


class MemorySystem:
    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        t = spec.timing
        n = spec.compute_units
        if spec.has_global_cache:
            self.l1 = [LRUCache(spec.l1_bytes, spec.line_bytes) for _ in range(n)]
            self.l2 = LRUCache(spec.l2_bytes, spec.line_bytes, ways=8)
        else:
            self.l1 = [null_cache() for _ in range(n)]
            self.l2 = null_cache()
        self.tex = [
            LRUCache(max(spec.tex_cache_bytes, _TEX_LINE), _TEX_LINE)
            for _ in range(n)
        ]
        self.const = [
            LRUCache(max(spec.const_cache_bytes, _CONST_LINE), _CONST_LINE)
            for _ in range(n)
        ]
        # traffic accounting (per CU)
        self.dram_bytes = np.zeros(n, dtype=np.float64)
        # DRAM accesses per 256B region (partition-camping model);
        # only accesses that actually reach DRAM are counted
        from collections import Counter

        self.region_counts: Counter = Counter()
        # profiler counters (cumulative; SimDevice snapshots around each
        # launch to recover per-launch deltas)
        self.gmem_requests = 0
        self.gmem_transactions = 0
        self.shared_accesses = 0
        self.shared_replays = 0
        self.spill_bytes = 0.0
        # launch-memo journal of individual dram_bytes adds, or None.
        # dram_bytes is a float fold whose value is summation-order
        # sensitive; memo replay re-applies this exact add sequence.
        self._dram_log: list | None = None

    def begin_dram_log(self) -> None:
        self._dram_log = []

    def end_dram_log(self) -> list:
        log, self._dram_log = self._dram_log, None
        return log

    def cache_groups(self) -> dict:
        """Named cache banks for per-launch profiling.

        ``null`` is the cache-less GT200 global-load path: every
        transaction is recorded as a miss, which is exactly what the
        hardware does to DRAM.
        """
        groups = {"const": list(self.const), "tex": list(self.tex)}
        if self.spec.has_global_cache:
            groups["l1"] = list(self.l1)
            groups["l2"] = [self.l2]
        else:
            groups["null"] = list(self.l1)
        return groups

    def prof_snapshot(self) -> dict:
        """Snapshot every profiler-visible counter (cheap, per launch)."""
        return {
            "gmem_requests": self.gmem_requests,
            "gmem_transactions": self.gmem_transactions,
            "shared_accesses": self.shared_accesses,
            "shared_replays": self.shared_replays,
            "spill_bytes": self.spill_bytes,
            "dram_bytes": self.dram_bytes.copy(),
            "caches": {
                name: [c.stats.snapshot() for c in caches]
                for name, caches in self.cache_groups().items()
            },
        }

    def prof_since(self, snap: dict) -> dict:
        """Per-launch counter deltas since ``snap``.

        Cache counters are aggregated across the per-CU banks into one
        :class:`~repro.arch.caches.CacheStats` per named group.
        """
        from ..arch.caches import CacheStats

        caches: dict = {}
        for name, banks in self.cache_groups().items():
            agg = CacheStats()
            for cache, s in zip(banks, snap["caches"][name]):
                agg.add(cache.stats.since(s))
            caches[name] = agg
        return {
            "gmem_requests": self.gmem_requests - snap["gmem_requests"],
            "gmem_transactions": self.gmem_transactions
            - snap["gmem_transactions"],
            "shared_accesses": self.shared_accesses - snap["shared_accesses"],
            "shared_replays": self.shared_replays - snap["shared_replays"],
            "spill_bytes": self.spill_bytes - snap["spill_bytes"],
            "dram_bytes": self.dram_bytes - snap["dram_bytes"],
            "caches": caches,
        }

    # ------------------------------------------------------------------
    def access_global(
        self, cu: int, addrs: np.ndarray, sizes: np.ndarray, is_store: bool
    ) -> float:
        """One warp's plain global-space access (ld.global/st.global)."""
        segs, traffic = coalesce(self.spec, addrs, sizes)
        segs = segs.tolist()
        if not self.spec.has_global_cache:
            return self.charge_dram(
                cu, 1, max(len(segs), 1), traffic, [b >> 8 for b in segs], is_store
            )
        return self.walk_global(cu, segs, [len(segs)], [traffic], is_store)

    def walk_global(
        self, cu: int, segs: list, counts: list, traffic: list, is_store: bool
    ) -> float:
        """L1/L2 walk of consecutive warp rows on one CU, in row order.

        Row ``k`` owns the next ``counts[k]`` coalesced line bases of
        ``segs`` and moves ``traffic[k]`` bytes.  Returns the per-row
        costs summed in row order.
        """
        t = self.spec.timing
        l1 = self.l1[cu]
        l2 = self.l2
        dram = self.dram_bytes
        log = self._dram_log
        regions = self.region_counts
        cost = 0.0
        pos = 0
        for c, tr in zip(counts, traffic):
            row = segs[pos : pos + c]
            pos += c
            nseg = max(c, 1)
            self.gmem_requests += 1
            self.gmem_transactions += nseg
            if is_store:
                # write-through, fire-and-forget: traffic but little stall
                dram[cu] += tr
                if log is not None:
                    log.append((cu, tr))
                for b in row:
                    l2.access(b)
                cost += t.tx_cycles * nseg
                continue
            worst = t.l1_hit
            per_seg = tr / nseg
            for b in row:
                if l1.access(b):
                    continue
                if l2.access(b):
                    worst = max(worst, t.l2_hit)
                else:
                    worst = max(worst, t.dram_latency)
                    dram[cu] += per_seg
                    if log is not None:
                        log.append((cu, per_seg))
                    regions[b >> 8] += 1
            cost += worst + t.tx_cycles * (nseg - 1)
        return cost

    def texture_rows(self, rows: np.ndarray, active, size: int) -> tuple:
        """The 32B texture lines of many warp rows: ``(row, lines)``."""
        return row_lines(rows, active, size, _TEX_LINE)

    def access_texture(self, cu: int, addrs: np.ndarray, sizes: np.ndarray) -> float:
        """One warp's texture fetch (see :meth:`walk_texture`)."""
        lines, _ = segments_lines(addrs, sizes, _TEX_LINE)
        return self.walk_texture(cu, lines.tolist(), [lines.size])

    def walk_texture(self, cu: int, lines: list, counts: list) -> float:
        """Texture-path reads of consecutive warp rows, in row order.

        A small per-CU cache over global data: this is what makes the
        irregular gathers of MD/SPMV look regular (paper §IV-B.1) —
        reuse is captured close to the CU even on GT200, which has no
        other global-read cache.  Row ``k`` owns the next ``counts[k]``
        line bases of ``lines``.
        """
        t = self.spec.timing
        tex = self.tex[cu]
        log = self._dram_log
        cost = 0.0
        pos = 0
        for c in counts:
            worst = t.tex_hit
            for b in lines[pos : pos + c]:
                if not tex.access(b):
                    worst = max(worst, t.dram_latency)
                    self.dram_bytes[cu] += _TEX_LINE
                    if log is not None:
                        log.append((cu, _TEX_LINE))
                    self.region_counts[b >> 8] += 1
            pos += c
            # the texture pipeline is built for many small scattered
            # fetches: extra segments are much cheaper than on the L1 path
            cost += worst + t.tx_cycles * 0.2 * (max(c, 1) - 1)
        return cost

    def const_rows(self, rows: np.ndarray, active) -> tuple:
        """The constant-cache lookups of many warp rows: ``(row, bases)``.

        One lookup per *distinct address*, ascending — two addresses in
        the same 64B line still serialize.
        """
        row, addrs = row_distinct(rows, active)
        return row, addrs // _CONST_LINE * _CONST_LINE

    def access_const(self, cu: int, addrs: np.ndarray) -> float:
        """One warp's constant read (see :meth:`walk_const`)."""
        bases = np.unique(addrs) // _CONST_LINE * _CONST_LINE
        return self.walk_const(cu, bases.tolist(), [bases.size])

    def walk_const(self, cu: int, bases: list, counts: list) -> float:
        """Constant-cache reads of consecutive warp rows, in row order.

        Broadcast when all lanes agree; distinct addresses serialize —
        the defining behaviour of the constant path on every CUDA-class
        device.  Row ``k`` owns the next ``counts[k]`` entries of
        ``bases``.
        """
        t = self.spec.timing
        const = self.const[cu]
        log = self._dram_log
        cost = 0.0
        pos = 0
        for c in counts:
            row_cost = 0.0
            for base in bases[pos : pos + c]:
                if const.access(base):
                    row_cost += t.const_hit
                else:
                    row_cost += t.dram_latency
                    self.dram_bytes[cu] += _CONST_LINE
                    if log is not None:
                        log.append((cu, _CONST_LINE))
                    self.region_counts[base >> 8] += 1
            pos += c
            cost += row_cost
        return cost

    def charge_dram(
        self,
        cu: int,
        requests: int,
        nseg: int,
        traffic: int,
        regions: list,
        is_store: bool,
    ) -> float:
        """Charge ``requests`` warp accesses on a cache-less global path.

        ``nseg`` transactions move ``traffic`` bytes straight to or from
        DRAM; ``regions`` lists each transaction's 256B region in issue
        order.  Every term is stateless, so one call may stand for all of
        a block's warp rows of one instruction: with integer-valued
        ``dram_latency``/``tx_cycles`` the returned cost equals the sum
        of the per-row costs exactly.
        """
        t = self.spec.timing
        self.gmem_requests += requests
        self.gmem_transactions += nseg
        self.dram_bytes[cu] += traffic
        if self._dram_log is not None:
            self._dram_log.append((cu, traffic))
        # Counter.update over a list counts element by element, so keys
        # enter region_counts in exactly the per-transaction order
        self.region_counts.update(regions)
        if is_store:
            # write-through, fire-and-forget: traffic but little stall
            return t.tx_cycles * nseg
        self.l1[cu].stats.misses += nseg  # null path: all misses
        return t.dram_latency * requests + t.tx_cycles * (nseg - requests)

    def charge_shared(self, cu: int, requests: int, extra: int) -> float:
        """Charge ``requests`` banked shared/local-memory warp accesses.

        ``extra`` is their summed bank replays beyond the first pass
        (:func:`~repro.arch.banks.bank_replays` minus one per row).  Like
        :meth:`charge_dram` one call may stand for a whole block's rows.
        """
        t = self.spec.timing
        self.shared_accesses += requests
        if self.spec.local_mem_is_plain_memory:
            # CPU device: "local" memory is ordinary cached memory — the
            # staging copy is pure overhead (paper §V, TranP on Intel920)
            return t.shared_latency * requests
        self.shared_replays += extra
        return t.shared_latency * requests + extra * 4.0

    def access_shared(self, cu: int, addrs: np.ndarray) -> float:
        """One warp's banked shared/local-memory access."""
        return self.charge_shared(cu, 1, bank_conflicts(self.spec, addrs) - 1)

    def access_local(self, cu: int, nbytes_per_thread: int, width: int) -> float:
        """Register-spill traffic (``ld.local``/``st.local``).

        GT200 spills straight to DRAM (interleaved, hence coalesced);
        Fermi spills are usually caught by L1.
        """
        t = self.spec.timing
        traffic = width * self.spec.warp_width
        self.spill_bytes += traffic
        if self.spec.has_global_cache:
            return t.l1_hit
        self.dram_bytes[cu] += traffic
        if self._dram_log is not None:
            self._dram_log.append((cu, traffic))
        return t.dram_latency * 0.5 + t.tx_cycles
