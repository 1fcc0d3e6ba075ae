"""The memory system: per-CU caches + DRAM cost accounting.

The interpreter charges a whole batch of blocks with one call:
:meth:`MemorySystem.charge` takes every memory visit the batch recorded
and returns a (visit × block) cost matrix.  The cached paths (L1/L2,
texture, constant) are resolved as one block-major stream, ordered by
(block, visit, row, line), one :meth:`~repro.arch.caches.LRUTable.resolve`
pass per cache level; the stateless paths (shared banks, cache-less
global, register spills) are summed per (visit, block).  The one-warp
``access_*`` methods charge a one-row stream through the same code.
Costs follow a simple serialization model: the slowest miss level sets
the base latency and every extra transaction adds ``tx_cycles``.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from ..arch.banks import bank_conflicts
from ..arch.caches import LRUTable, null_cache
from ..arch.coalesce import coalesce, row_distinct, row_lines, segments_lines
from ..arch.specs import DeviceSpec

__all__ = ["MemorySystem"]

#: texture-cache line and constant-cache line, in bytes
_TEX_LINE = 32
_CONST_LINE = 64

#: record kinds charged as one cache stream, and its paths: global
#: loads/stores, texture fetches and constant reads
_STREAM = ("global", "tex", "const")
_LD, _ST, _TEX, _CONST = range(4)

#: stream items charged at once, about the 90th percentile of a default
#: paper sweep's batches; larger batches go in chunks of blocks
_CHUNK_ITEMS = 1 << 13


def _blocks_of(rec: tuple, lo: int, hi: int, wpb: int) -> tuple:
    """Blocks ``[lo, hi)`` of a :meth:`MemorySystem.charge` record."""
    kind = rec[0]
    if kind == "shared":
        return (kind, rec[1][lo:hi], rec[2][lo:hi])
    if kind not in _STREAM:
        return rec
    row = rec[1]
    a, b = np.searchsorted(row, (lo * wpb, hi * wpb))
    return (kind, row[a:b] - lo * wpb) + tuple(
        x[a:b] if isinstance(x, np.ndarray) else x for x in rec[2:]
    )


class MemorySystem:
    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        n = spec.compute_units
        if spec.has_global_cache:
            self.l1 = LRUTable(n, spec.l1_bytes, spec.line_bytes)
            self.l2 = LRUTable(1, spec.l2_bytes, spec.line_bytes, ways=8)
        else:
            self.l1 = [null_cache() for _ in range(n)]
            self.l2 = None
        self.tex = LRUTable(n, max(spec.tex_cache_bytes, _TEX_LINE), _TEX_LINE)
        self.const = LRUTable(
            n, max(spec.const_cache_bytes, _CONST_LINE), _CONST_LINE
        )
        # traffic accounting (per CU)
        self.dram_bytes = np.zeros(n, dtype=np.float64)
        # DRAM accesses per 256B region (partition-camping model);
        # only accesses that actually reach DRAM are counted
        self.region_counts: Counter = Counter()
        # profiler counters (cumulative; SimDevice snapshots around each
        # launch to recover per-launch deltas)
        self.gmem_requests = 0
        self.gmem_transactions = 0
        self.shared_accesses = 0
        self.shared_replays = 0
        self.spill_bytes = 0.0
        # launch-memo journal of dram_bytes adds, or None; memo replay
        # re-applies this exact add sequence
        self._dram_log: list | None = None

    def begin_dram_log(self) -> None:
        self._dram_log = []

    def end_dram_log(self) -> list:
        log, self._dram_log = self._dram_log, None
        return log

    def tables(self) -> dict:
        """The residency tables (every stateful cache), by name."""
        out = {"const": self.const, "tex": self.tex}
        if self.spec.has_global_cache:
            out["l1"] = self.l1
            out["l2"] = self.l2
        return out

    def cache_groups(self) -> dict:
        """Named cache banks for per-launch profiling.

        ``null`` is the cache-less GT200 global-load path: every
        transaction is recorded as a miss, which is exactly what the
        hardware does to DRAM.
        """
        groups = {name: list(t) for name, t in self.tables().items()}
        if not self.spec.has_global_cache:
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

    # -- record-time resolution ------------------------------------------
    def texture_rows(self, rows: np.ndarray, active, size: int) -> tuple:
        """The 32B texture lines of many warp rows: ``(row, lines)``."""
        return row_lines(rows, active, size, _TEX_LINE)

    def const_rows(self, rows: np.ndarray, active) -> tuple:
        """The constant-cache lookups of many warp rows: ``(row, bases)``.

        One lookup per *distinct address*, ascending — two addresses in
        the same 64B line still serialize.
        """
        row, addrs = row_distinct(rows, active)
        return row, addrs // _CONST_LINE * _CONST_LINE

    # -- batch charging ----------------------------------------------------
    def charge(self, visits: list, ngr: np.ndarray, cus: list, wpb: int) -> np.ndarray:
        """Charge a batch's memory visits; returns their costs per block.

        ``visits[v]`` is one memory instruction's record over the batch's
        blocks, whose warp rows are numbered block-major, ``wpb`` rows a
        block; block ``j`` runs on compute unit ``cus[j]`` and issued
        ``ngr[v, j]`` warps of visit ``v``.  Records are

        * ``("global", row, bases, widths, is_store)`` — coalesced
          segments, row by row;
        * ``("tex", row, lines)`` / ``("const", row, bases)`` — texture
          lines / constant lookups, row by row;
        * ``("shared", requests, extra)`` — per-block warp accesses and
          bank replays beyond the first pass;
        * ``("local", width)`` — one register spill of ``width`` bytes
          per thread.

        Cache state, counters, ``dram_bytes`` and ``region_counts`` end
        exactly as charging block after block, each block's visits in
        order and each visit's rows in row order, leaves them.  Every
        cost is an integer-valued sum of integer latencies except a
        texture row's ``0.2 * tx_cycles`` term, so only texture rows are
        folded row by row; the rest are summed in any order, exactly.
        """
        nb = ngr.shape[1]
        items = sum(rec[1].size for rec in visits if rec[0] in _STREAM)
        # consecutive blocks are a contiguous stretch of the block-major
        # stream, so charging chunk after chunk is the same stream with
        # a bounded working set
        step = max(1, nb * _CHUNK_ITEMS // max(items, 1))
        return np.hstack(
            [
                self._charge(
                    [_blocks_of(rec, lo, lo + step, wpb) for rec in visits],
                    ngr[:, lo : lo + step], cus[lo : lo + step], wpb,
                )
                for lo in range(0, nb, step)
            ]
        )

    def _charge(self, visits: list, ngr: np.ndarray, cus: list, wpb: int) -> np.ndarray:
        t = self.spec.timing
        nv, nb = ngr.shape
        cost = np.zeros((nv, nb))
        cu_of = np.asarray(cus, dtype=np.int64)
        dram = np.zeros(nb)
        stream = [(v, rec) for v, rec in enumerate(visits) if rec[0] in _STREAM]
        regions = []
        if stream:
            regions = self._charge_stream(stream, cost, dram, cu_of, wpb)
        for v, rec in enumerate(visits):
            if rec[0] == "shared":
                _, req, extra = rec
                self.shared_accesses += int(req.sum())
                if self.spec.local_mem_is_plain_memory:
                    # CPU device: "local" memory is ordinary cached memory
                    # — the staging copy is pure overhead (paper §V,
                    # TranP on Intel920)
                    cost[v] = t.shared_latency * req
                else:
                    self.shared_replays += int(extra.sum())
                    cost[v] = t.shared_latency * req + extra * 4.0
            elif rec[0] == "local":
                # GT200 spills straight to DRAM (interleaved, hence
                # coalesced); Fermi spills are usually caught by L1
                issued = ngr[v] > 0
                traffic = rec[1] * self.spec.warp_width
                self.spill_bytes += traffic * int(issued.sum())
                if self.spec.has_global_cache:
                    cost[v] = t.l1_hit * ngr[v]
                else:
                    dram += traffic * issued
                    cost[v] = (t.dram_latency * 0.5 + t.tx_cycles) * ngr[v]
        # every add is a whole number of bytes, so the per-CU batch sum
        # equals the add-by-add fold exactly
        per_cu = np.bincount(cu_of, weights=dram, minlength=len(self.dram_bytes))
        self.dram_bytes += per_cu
        if self._dram_log is not None:
            self._dram_log.extend((cu, per_cu[cu]) for cu in np.flatnonzero(per_cu).tolist())
        # a list counts element by element: keys enter in stream order
        self.region_counts.update(regions)
        return cost

    def _charge_stream(self, stream, cost, dram, cu_of, wpb) -> list:
        """The cached-path records of :meth:`charge`; returns the DRAM
        regions they touch, in stream order."""
        t = self.spec.timing
        nv, nb = cost.shape
        sizes = [rec[1].size for _, rec in stream]
        n = sum(sizes)
        if not n:
            return []
        vis = np.repeat([v for v, _ in stream], sizes)
        row = np.concatenate([rec[1] for _, rec in stream])
        base = np.concatenate([rec[2] for _, rec in stream])
        width = np.concatenate(
            [
                rec[3] if rec[0] == "global"
                else np.full(rec[1].size, _TEX_LINE if rec[0] == "tex" else _CONST_LINE)
                for _, rec in stream
            ]
        )
        path = np.repeat(
            [
                (_ST if rec[4] else _LD) if rec[0] == "global"
                else _TEX if rec[0] == "tex" else _CONST
                for _, rec in stream
            ],
            sizes,
        )
        blk = row // wpb
        cu = cu_of[blk]
        # block-major stream order: (block, visit, row, line)
        order = np.argsort(blk, kind="stable")
        po = path[order]
        # per item: True once it reached DRAM; lat: its latency
        to_dram = np.zeros(n, dtype=bool)
        lat = np.zeros(n)
        if self.spec.has_global_cache:
            ld = order[po == _LD]
            l1_hit = np.zeros(n, dtype=bool)
            l1_hit[ld] = self.l1.resolve(cu[ld], base[ld])
            # L2 sees L1 load misses and every store, in stream order
            below = order[((po == _LD) & ~l1_hit[order]) | (po == _ST)]
            l2_hit = np.zeros(n, dtype=bool)
            l2_hit[below] = self.l2.resolve(np.zeros(below.size, np.int64), base[below])
            to_dram[ld] = ~(l1_hit[ld] | l2_hit[ld])
            lat[ld] = np.where(
                l1_hit[ld], t.l1_hit, np.where(l2_hit[ld], t.l2_hit, t.dram_latency)
            )
        else:
            # cache-less global path: every transaction goes to DRAM
            glob = order[(po == _LD) | (po == _ST)]
            to_dram[glob] = True
            loads = np.bincount(cu[path == _LD], minlength=len(self.l1)).tolist()
            for cache, k in zip(self.l1, loads):
                cache.stats.misses += k
        for p, table, hit_lat in ((_TEX, self.tex, t.tex_hit), (_CONST, self.const, t.const_hit)):
            sel = order[po == p]
            if sel.size:
                hit = table.resolve(cu[sel], base[sel])
                to_dram[sel] = ~hit
                lat[sel] = np.where(hit, hit_lat, t.dram_latency)
        # write-through stores move their bytes whatever L2 does
        moved = to_dram | (path == _ST)
        dram += np.bincount(blk[moved], weights=width[moved], minlength=nb)

        # rows: runs of one (visit, row) in record order
        new = np.ones(n, dtype=bool)
        new[1:] = (vis[1:] != vis[:-1]) | (row[1:] != row[:-1])
        starts = np.flatnonzero(new)
        nseg = np.diff(np.append(starts, n))
        r_path = path[starts]
        worst = np.maximum.reduceat(lat, starts)
        glob = r_path <= _ST
        self.gmem_requests += int(glob.sum())
        self.gmem_transactions += int(nseg[glob].sum())
        rc = np.where(
            r_path == _ST,
            t.tx_cycles * nseg,
            np.where(
                r_path == _CONST,
                np.add.reduceat(lat, starts),
                (np.maximum(worst, t.l1_hit) if self.spec.has_global_cache else t.dram_latency)
                + t.tx_cycles * (nseg - 1),
            ),
        )
        key = vis[starts] * nb + blk[starts]
        tx = r_path == _TEX
        cost += np.bincount(key[~tx], weights=rc[~tx], minlength=nv * nb).reshape(nv, nb)
        if tx.any():
            # the texture pipeline is built for many small scattered
            # fetches: extra segments are much cheaper than on the L1
            # path.  0.2 * tx_cycles is fractional, so each block's rows
            # fold in row order: a sequential cumsum over a (block-visit,
            # row) grid whose empty slots add 0.0
            tv, slot = np.unique(vis[starts][tx], return_inverse=True)
            r = row[starts][tx]
            grid = np.zeros((tv.size * nb, wpb))
            grid[slot * nb + r // wpb, r % wpb] = (
                np.maximum(worst[tx], t.tex_hit) + t.tx_cycles * 0.2 * (nseg[tx] - 1)
            )
            cost[tv] = np.cumsum(grid, axis=1)[:, -1].reshape(tv.size, nb)
        return (base[order[to_dram[order]]] >> 8).tolist()

    # -- one warp ----------------------------------------------------------
    def _one(self, cu: int, rec: tuple) -> float:
        """Charge one warp's record as a one-row, one-block batch."""
        return float(self.charge([rec], np.ones((1, 1), np.int64), [cu], 1)[0, 0])

    def access_global(
        self, cu: int, addrs: np.ndarray, sizes: np.ndarray, is_store: bool
    ) -> float:
        """One warp's plain global-space access (ld.global/st.global)."""
        bases, widths = coalesce(self.spec, addrs, sizes)
        row = np.zeros(bases.size, np.int64)
        return self._one(cu, ("global", row, bases, widths, is_store))

    def access_texture(self, cu: int, addrs: np.ndarray, sizes: np.ndarray) -> float:
        """One warp's texture fetch.

        A small per-CU cache over global data: this is what makes the
        irregular gathers of MD/SPMV look regular (paper §IV-B.1) —
        reuse is captured close to the CU even on GT200, which has no
        other global-read cache.
        """
        lines, _ = segments_lines(addrs, sizes, _TEX_LINE)
        return self._one(cu, ("tex", np.zeros(lines.size, np.int64), lines))

    def access_const(self, cu: int, addrs: np.ndarray) -> float:
        """One warp's constant read.

        Broadcast when all lanes agree; distinct addresses serialize —
        the defining behaviour of the constant path on every CUDA-class
        device.
        """
        bases = np.unique(addrs) // _CONST_LINE * _CONST_LINE
        return self._one(cu, ("const", np.zeros(bases.size, np.int64), bases))

    def access_shared(self, cu: int, addrs: np.ndarray) -> float:
        """One warp's banked shared/local-memory access."""
        extra = np.array([bank_conflicts(self.spec, addrs) - 1])
        return self._one(cu, ("shared", np.ones(1, np.int64), extra))

    def access_local(self, cu: int, nbytes_per_thread: int, width: int) -> float:
        """Register-spill traffic (``ld.local``/``st.local``)."""
        return self._one(cu, ("local", width))
