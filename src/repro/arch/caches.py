"""Cache models: texture cache, constant cache, Fermi L1/L2.

Set-associative LRU caches over *line base addresses* (the coalescer has
already resolved lane addresses into segments).  The architectural story
these implement:

* GT200 has **no** cache over plain global loads — its only cached read
  paths are the constant cache (broadcast, per-SM) and the texture cache
  (spatial reuse for irregular gathers).  This is why the paper's Sobel
  flips between GPUs (Fig. 8) and why texture memory matters so much for
  MD/SPMV (Fig. 4).
* Fermi adds a real L1/L2 hierarchy over global loads, which levels the
  constant-memory difference and halves texture's advantage.

Residency is a ``(sets, ways)`` table of line ids: set ``s`` holds its
``fill[s]`` resident lines left-aligned in LRU order (least recent
first) and zeros past them.  :class:`LRUTable` keeps one such table for
the per-CU banks of a cache and resolves a whole access stream against
it at once (:func:`lru_stream`); :meth:`LRUCache.access` touches one
line of one bank and is the stream resolver's oracle.
"""
from __future__ import annotations

import numpy as np

__all__ = ["LRUCache", "LRUTable", "CacheStats", "lru_stream", "null_cache"]


class CacheStats:
    __slots__ = ("hits", "misses")

    def __init__(self, hits: int = 0, misses: int = 0) -> None:
        self.hits = hits
        self.misses = misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        a = self.accesses
        return self.hits / a if a else 0.0

    # -- per-launch accounting (the profiler's snapshot/delta protocol) --
    def snapshot(self) -> tuple[int, int]:
        return (self.hits, self.misses)

    def since(self, snap: tuple[int, int]) -> "CacheStats":
        """Counters accrued after ``snap`` (one launch's worth)."""
        return CacheStats(self.hits - snap[0], self.misses - snap[1])

    def add(self, other: "CacheStats") -> "CacheStats":
        self.hits += other.hits
        self.misses += other.misses
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheStats(hits={self.hits}, misses={self.misses})"


def _geometry(capacity_bytes: int, line_bytes: int, ways: int) -> tuple:
    line = max(line_bytes, 1)
    return line, max(1, capacity_bytes // (line * ways))


class LRUCache:
    """Set-associative LRU cache keyed by line base address.

    ``tags``/``fill`` may be views into an :class:`LRUTable`'s residency
    table; by default the cache owns its own.
    """

    def __init__(
        self, capacity_bytes: int, line_bytes: int, ways: int = 4,
        tags: np.ndarray | None = None, fill: np.ndarray | None = None,
    ):
        self.line, self.sets = _geometry(capacity_bytes, line_bytes, ways)
        self.ways = ways
        self.tags = np.zeros((self.sets, ways), np.int64) if tags is None else tags
        self.fill = np.zeros(self.sets, np.int64) if fill is None else fill
        self.stats = CacheStats()

    def access(self, base: int) -> bool:
        """Touch one line; True on hit.  Misses fill the line."""
        line_id = base // self.line
        si = line_id % self.sets
        lru = self.tags[si, : self.fill[si]].tolist()
        hit = line_id in lru
        if hit:
            lru.remove(line_id)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if len(lru) == self.ways:
                lru.pop(0)
        lru.append(line_id)
        self.tags[si, : len(lru)] = lru
        self.fill[si] = len(lru)
        return hit

    def invalidate(self) -> None:
        self.tags[:] = 0
        self.fill[:] = 0


class LRUTable:
    """``n`` identical LRU banks, one per compute unit, over one table.

    Bank ``i`` owns sets ``[i * sets, (i + 1) * sets)`` of ``tags``/
    ``fill``; ``table[i]`` is that bank as an :class:`LRUCache`.
    """

    def __init__(self, n: int, capacity_bytes: int, line_bytes: int, ways: int = 4):
        self.line, self.sets = _geometry(capacity_bytes, line_bytes, ways)
        self.ways = ways
        self.tags = np.zeros((n * self.sets, ways), np.int64)
        self.fill = np.zeros(n * self.sets, np.int64)
        s = self.sets
        self.banks = [
            LRUCache(
                capacity_bytes, line_bytes, ways,
                self.tags[i * s : (i + 1) * s], self.fill[i * s : (i + 1) * s],
            )
            for i in range(n)
        ]

    def __getitem__(self, i: int) -> LRUCache:
        return self.banks[i]

    def __iter__(self):
        return iter(self.banks)

    def __len__(self) -> int:
        return len(self.banks)

    def resolve(self, bank: np.ndarray, bases: np.ndarray) -> np.ndarray:
        """Touch ``bases[k]`` in bank ``bank[k]``, in stream order.

        Returns the per-access hit mask; residency and every bank's
        :class:`CacheStats` end as ``access`` one line at a time leaves
        them.
        """
        line_id = bases // self.line
        hits = lru_stream(
            self.tags, self.fill, self.ways,
            bank * self.sets + line_id % self.sets, line_id,
        )
        n = len(self.banks)
        total = np.bincount(bank, minlength=n).tolist()
        hit = np.bincount(bank[hits], minlength=n).tolist()
        for b, t, h in zip(self.banks, total, hit):
            b.stats.hits += h
            b.stats.misses += t - h
        return hits


def lru_stream(
    tags: np.ndarray, fill: np.ndarray, ways: int, sets: np.ndarray, lines: np.ndarray
) -> np.ndarray:
    """Resolve an access stream against LRU residency in one pass.

    Access ``k`` touches line ``lines[k]`` of set ``sets[k]``.  Each
    touched set's stream is prefixed with its resident lines in LRU
    order, which stand for the accesses that made them resident.  By
    Mattson et al.'s stack-distance rule ("Evaluation techniques for
    storage hierarchies", IBM Systems Journal 1970) an access then hits
    iff fewer than ``ways`` distinct lines of its set were touched since
    the previous touch of its line.  The set's last ``ways`` distinct
    lines, in order of last touch, are written back as its residency.
    Returns the per-access hit mask.
    """
    if not lines.size:
        return np.zeros(0, dtype=bool)
    mark = np.zeros(fill.size, dtype=bool)
    mark[sets] = True
    touched = np.flatnonzero(mark)
    resident = np.arange(ways) < fill[touched][:, None]
    n_seed = int(fill[touched].sum())
    s = np.concatenate((np.repeat(touched, fill[touched]), sets))
    x = np.concatenate((tags[touched][resident], lines))
    # set-major positions, time order within a set: a window between two
    # touches of a line then holds only accesses to its set
    order = np.argsort(s, kind="stable")
    s = s[order]
    x = x[order]
    n = s.size
    # previous and next touch of the same line, by position
    grp = np.lexsort((x, s))
    same = (s[grp[1:]] == s[grp[:-1]]) & (x[grp[1:]] == x[grp[:-1]])
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    prev[grp[1:][same]] = grp[:-1][same]
    nxt[grp[:-1][same]] = grp[1:][same]
    gap = np.arange(n) - prev - 1
    hit = (prev >= 0) & (gap < ways)
    # a longer window needs its distinct lines counted: position k of
    # (prev, i) is a distinct line's last touch before i iff nxt[k] > i.
    # Count back from i in widening bands until ``ways`` are found (a
    # miss) or the window is exhausted (a hit).
    i = np.flatnonzero((prev >= 0) & (gap >= ways))
    span = gap[i]
    seen = np.zeros(i.size, dtype=np.int64)
    lo, band = 0, 2 * ways
    while i.size:
        back = np.arange(lo + 1, lo + band + 1)
        inside = back <= span[:, None]
        k = np.where(inside, i[:, None] - back, 0)
        seen += ((nxt[k] > i[:, None]) & inside).sum(axis=1)
        lo += band
        band *= 2
        miss = seen >= ways
        hit[i[~miss & (span <= lo)]] = True
        left = ~miss & (span > lo)
        i, span, seen = i[left], span[left], seen[left]
    # write back: each set's last ``ways`` distinct lines, LRU first
    last = np.flatnonzero(nxt == n)
    ls = s[last]
    first = np.searchsorted(ls, touched)
    count = np.searchsorted(ls, touched, side="right") - first
    keep_from = np.repeat(first + np.maximum(count - ways, 0), count)
    rank = np.arange(last.size) - keep_from
    kept = rank >= 0
    tags[ls[kept], rank[kept]] = x[last[kept]]
    fill[touched] = np.minimum(count, ways)
    out = np.empty(lines.size, dtype=bool)
    real = order >= n_seed
    out[order[real] - n_seed] = hit[real]
    return out


class _NullCache:
    """Cache-less read path (GT200 global loads): everything misses."""

    line = 1

    def __init__(self) -> None:
        self.stats = CacheStats()

    def access(self, base: int) -> bool:
        self.stats.misses += 1
        return False

    def invalidate(self) -> None:  # pragma: no cover - nothing to clear
        pass


def null_cache() -> _NullCache:
    return _NullCache()
