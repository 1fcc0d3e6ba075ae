"""In-run launch memoization: replay repeated launches bit-identically.

The paper's timing methodology (and the benchsuite reproducing it)
repeats *identical* kernel launches to average wall-clock noise; on the
simulator's virtual clock every repeat recomputes exactly the same
thing.  This module gives :class:`~repro.sim.device.SimDevice` a memo
table of completed launches so a repeat replays the recorded outcome
instead of re-stepping every block.

The contract is strict bit-identity — a memoized replay must leave the
device (memory bytes, cache contents, every profiler counter) in
exactly the state per-block execution would have, and produce a
byte-identical ``canonical_results_json``.  Three mechanisms carry it:

* **Launch key + input guards.**  A launch is keyed by (kernel digest,
  prepared-argument bytes, grid, block); the device spec is implicit in
  the per-device table.  A key match alone is not enough: the entry
  also records a digest of every byte the kernel *read before writing*
  (its external input) and a signature of the cache hierarchy's exact
  pre-launch content (line sets + LRU order).  Both must match the
  current device state or the launch re-executes — cache state changes
  hit/miss costs, and memory content changes results.
* **Write post-images.**  During recording, :class:`FlatMemory` traces
  the byte intervals each store covers (launches with scattered or
  wrapping stores are simply not memoized); replay writes the recorded
  post-image bytes back.  Reads are traced as coarse per-call
  intervals hashed in execution order — over-approximating the read
  set can only cause spurious misses, never wrong hits.
* **Exact counter replay.**  Integer counters (cache hits/misses, gmem
  requests/transactions, shared/spill accounting, region counts) are
  restored by adding recorded integral deltas.  ``dram_bytes`` is a
  float array, so the recording journals its adds (one whole-byte sum
  per CU per charged batch) and replay re-applies the sequence — the
  running float state evolves through the identical op sequence it
  would under real execution.

Timing, occupancy, and the launch profile are *recomputed* from the
replayed statistics through the normal code path, so derived numbers
cannot drift from what execution would produce.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from .interp import LaunchStats

__all__ = ["LaunchMemo", "kernel_digest", "memo_enabled"]

#: per-device entry cap — a bench unit launches a handful of kernels,
#: so this is generous; the table stops growing past it
_CAP = 256

#: refuse to store entries whose post-image would exceed this (bytes);
#: keeps the memo table's memory footprint bounded
_MAX_POST_BYTES = 32 << 20

#: cap on the first-sight key set (see :meth:`LaunchMemo.can_record`)
_SEEN_CAP = 4096


def memo_enabled() -> bool:
    """Launch memoization is on unless ``REPRO_SIM_MEMO=0``."""
    return os.environ.get("REPRO_SIM_MEMO", "1") != "0"


def kernel_digest(kernel) -> str:
    """Stable content digest of a compiled kernel, memoized on it."""
    return kernel.content_digest()


def _args_sig(prepared: dict) -> tuple:
    return tuple(
        (name, v.dtype.char, v.tobytes())
        for name, v in sorted(prepared.items())
    )


def _bank_iter(memsys):
    """Every cache bank of the memory system, in a stable order."""
    for name, banks in sorted(memsys.cache_groups().items()):
        for i, bank in enumerate(banks):
            yield f"{name}.{i}", bank


def _tables(memsys):
    """Every residency table of the memory system, in a stable order."""
    return [table for _, table in sorted(memsys.tables().items())]


def cache_signature(memsys) -> tuple:
    """Exact content signature of the cache hierarchy.

    Captures what determines future hit/miss behaviour: per residency
    table, the touched sets (those holding a line) with their resident
    line ids in LRU order.  Its size follows the touched sets, not the
    table (a whole Intel920 L2 is 1 MB).  Null caches (the GT200 global
    path) carry no state and have no table.
    """
    sig = []
    for table in _tables(memsys):
        touched = np.flatnonzero(table.fill)
        sig.append(
            (
                touched.tobytes(),
                table.fill[touched].tobytes(),
                table.tags[touched].tobytes(),
            )
        )
    return tuple(sig)


def _restore_caches(memsys, sig: tuple) -> None:
    for (touched, fill, tags), table in zip(sig, _tables(memsys)):
        old = np.flatnonzero(table.fill)
        table.tags[old] = 0
        table.fill[old] = 0
        idx = np.frombuffer(touched, dtype=np.int64)
        table.fill[idx] = np.frombuffer(fill, dtype=np.int64)
        table.tags[idx] = np.frombuffer(tags, dtype=np.int64).reshape(-1, table.ways)


def _copy_stats(stats: LaunchStats) -> LaunchStats:
    out = LaunchStats(len(stats.comp_cycles))
    out.comp_cycles = stats.comp_cycles.copy()
    out.mem_cycles = stats.mem_cycles.copy()
    out.dyn_hist = stats.dyn_hist.copy()
    out.cyc_hist = stats.cyc_hist.copy()
    out.warp_instructions = stats.warp_instructions
    out.mem_instructions = stats.mem_instructions
    out.blocks = stats.blocks
    out.barriers = stats.barriers
    out.ilp_factor = stats.ilp_factor
    return out


class _Entry:
    __slots__ = (
        "read_intervals",
        "read_digest",
        "post_image",
        "pre_caches",
        "post_caches",
        "stats",
        "int_deltas",
        "bank_deltas",
        "region_delta",
        "dram_log",
        "spill_delta",
    )


class LaunchMemo:
    """Per-device memo table of completed launches."""

    def __init__(self) -> None:
        self._table: dict = {}
        self._seen: set = set()
        self.hits = 0
        self.misses = 0
        self.skipped = 0  # untraceable launches (scattered/wrapping stores)

    @staticmethod
    def key(kernel, prepared: dict, grid: tuple, block: tuple) -> tuple:
        return (kernel_digest(kernel), _args_sig(prepared), grid, block)

    def can_record(self, key: tuple) -> bool:
        """True if a completed launch under ``key`` should be traced.

        Recording is deferred to the *second* sight of a key: most
        launches never repeat, and tracing them would tax the common
        case for nothing.  A guard miss on an already-recorded key
        re-records (replacing the entry) — the early sights of a
        repeated launch run on cold caches, while every later repeat
        sees the warmed steady state, so re-recording converges on a
        hitting entry after at most one miss.
        """
        if key in self._table:
            return True
        if key in self._seen:
            return len(self._table) < _CAP
        if len(self._seen) < _SEEN_CAP:
            self._seen.add(key)
        return False

    # -- lookup --------------------------------------------------------
    def lookup(self, key: tuple, mem, memsys):
        """Return the matching entry, or None (guards included)."""
        e = self._table.get(key)
        if e is None:
            self.misses += 1
            return None
        # input guard: every externally-read byte must be unchanged
        h = hashlib.blake2b(digest_size=16)
        buf = mem._buf
        for lo, hi in e.read_intervals:
            h.update(buf[lo:hi])
        if h.digest() != e.read_digest:
            self.misses += 1
            return None
        # cache guard: hit/miss costs depend on exact pre-launch state
        if cache_signature(memsys) != e.pre_caches:
            self.misses += 1
            return None
        self.hits += 1
        return e

    # -- replay --------------------------------------------------------
    def replay(self, e, mem, memsys) -> LaunchStats:
        """Apply a recorded launch's effects; returns its LaunchStats."""
        buf = mem._buf
        for lo, data in e.post_image:
            buf[lo : lo + data.size] = data
        _restore_caches(memsys, e.post_caches)
        (d_req, d_tx, d_sh_acc, d_sh_rep) = e.int_deltas
        memsys.gmem_requests += d_req
        memsys.gmem_transactions += d_tx
        memsys.shared_accesses += d_sh_acc
        memsys.shared_replays += d_sh_rep
        # spill adds are whole bytes: integer-exact as a single delta
        memsys.spill_bytes += e.spill_delta
        # DRAM bytes are an order-sensitive float fold: re-apply the
        # recorded add sequence so the running value evolves through
        # exactly the ops real execution would perform
        dram = memsys.dram_bytes
        for cu, amt in e.dram_log:
            dram[cu] += amt
        memsys.region_counts.update(e.region_delta)
        for (_, d_hits, d_misses), (_, bank) in zip(
            e.bank_deltas, _bank_iter(memsys)
        ):
            bank.stats.hits += d_hits
            bank.stats.misses += d_misses
        return _copy_stats(e.stats)

    # -- recording -----------------------------------------------------
    def record(
        self,
        key: tuple,
        mem,
        memsys,
        trace: dict,
        pre_caches: tuple,
        pre_counters: dict,
        pre_banks: list,
        pre_regions,
        stats: LaunchStats,
    ) -> None:
        """Store a completed launch, if its trace is exact."""
        if not trace["ok"] or mem.oob_accesses != pre_counters["oob"]:
            self.skipped += 1
            return
        post_bytes = sum(hi - lo for lo, hi in trace["writes"])
        if post_bytes > _MAX_POST_BYTES or (
            key not in self._table and len(self._table) >= _CAP
        ):
            self.skipped += 1
            return
        e = _Entry()
        e.read_intervals = trace["reads"]
        e.read_digest = trace["digest"]
        e.post_image = [
            (lo, mem._buf[lo:hi].copy()) for lo, hi in trace["writes"]
        ]
        e.pre_caches = pre_caches
        e.post_caches = cache_signature(memsys)
        e.stats = _copy_stats(stats)
        e.int_deltas = (
            memsys.gmem_requests - pre_counters["gmem_requests"],
            memsys.gmem_transactions - pre_counters["gmem_transactions"],
            memsys.shared_accesses - pre_counters["shared_accesses"],
            memsys.shared_replays - pre_counters["shared_replays"],
        )
        e.spill_delta = memsys.spill_bytes - pre_counters["spill_bytes"]
        e.dram_log = trace["dram_log"]
        e.region_delta = {
            k: v - pre_regions.get(k, 0)
            for k, v in memsys.region_counts.items()
            if v != pre_regions.get(k, 0)
        }
        e.bank_deltas = [
            (label, bank.stats.hits - h0, bank.stats.misses - m0)
            for (label, bank), (h0, m0) in zip(_bank_iter(memsys), pre_banks)
        ]
        self._table[key] = e

    @staticmethod
    def pre_counters(mem, memsys) -> dict:
        return {
            "oob": mem.oob_accesses,
            "gmem_requests": memsys.gmem_requests,
            "gmem_transactions": memsys.gmem_transactions,
            "shared_accesses": memsys.shared_accesses,
            "shared_replays": memsys.shared_replays,
            "spill_bytes": memsys.spill_bytes,
        }

    @staticmethod
    def pre_banks(memsys) -> list:
        return [bank.stats.snapshot() for _, bank in _bank_iter(memsys)]

    def stats_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "entries": len(self._table),
        }
