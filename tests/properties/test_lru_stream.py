"""The batch cache resolver against the one-line LRU oracle.

``LRUTable.resolve`` decides every access of a stream at once by the
stack-distance rule; ``LRUCache.access`` touches one line at a time and
is the plain definition of LRU.  Random streams — any associativity from
1 to 16 ways, several banks (compute units) interleaved in one stream,
residency carried over several calls from a warmed start — must give the
same per-access hits, the same ``CacheStats`` and the same residency in
the same LRU order.  The two-level test drives ``MemorySystem.charge``
over L1 and L2 and holds it to the per-row walk, one line at a time:
loads go through L1, L1 misses and every store go to L2, and a batch
charged in chunks of blocks must match it too.
"""
import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX480, INTEL920
from repro.arch.caches import LRUCache, LRUTable
from repro.sim import memsys
from repro.sim.memsys import MemorySystem

_LINE = 32


def _residency(cache):
    return cache.tags.tolist(), cache.fill.tolist()


@settings(max_examples=150, deadline=None)
@given(
    ways=st.integers(1, 16),
    nsets=st.integers(1, 4),
    nbanks=st.integers(1, 3),
    data=st.data(),
)
def test_table_resolve_matches_access_oracle(ways, nsets, nbanks, data):
    cap = nsets * ways * _LINE
    table = LRUTable(nbanks, cap, _LINE, ways)
    ref = [LRUCache(cap, _LINE, ways) for _ in range(nbanks)]
    # a few more distinct lines than the cache holds, so sets fill,
    # evict and re-touch; negative addresses included
    nlines = nsets * (ways + 2)
    access = st.tuples(st.integers(0, nbanks - 1), st.integers(-2, nlines))
    warm = data.draw(st.lists(access, max_size=3 * nlines))
    for b, line in warm:
        table[b].access(line * _LINE)
        ref[b].access(line * _LINE)
    calls = data.draw(st.lists(st.lists(access, max_size=60), min_size=3, max_size=5))
    for stream in calls:
        bank = np.array([b for b, _ in stream], dtype=np.int64)
        # any byte of a line names that line
        off = data.draw(st.lists(st.integers(0, _LINE - 1), min_size=len(stream), max_size=len(stream)))
        bases = np.array([line * _LINE for _, line in stream], dtype=np.int64) + off
        got = table.resolve(bank, bases).tolist()
        want = [ref[b].access(int(a)) for b, a in zip(bank.tolist(), bases.tolist())]
        assert got == want
        for mine, theirs in zip(table, ref):
            assert mine.stats.snapshot() == theirs.stats.snapshot()
            assert _residency(mine) == _residency(theirs)


def _walk_global(spec, t, l1, l2, rows, cu, is_store, dram, regions):
    """One block's rows of one global visit, line by line (the oracle)."""
    cost = 0.0
    for segs in rows:
        nseg = len(segs)
        if is_store:
            dram[cu] += spec.line_bytes * nseg
            for b in segs:
                l2.access(b)
            cost += t.tx_cycles * nseg
            continue
        worst = t.l1_hit
        for b in segs:
            if l1[cu].access(b):
                continue
            if l2.access(b):
                worst = max(worst, t.l2_hit)
            else:
                worst = max(worst, t.dram_latency)
                dram[cu] += spec.line_bytes
                regions[b >> 8] += 1
        cost += worst + t.tx_cycles * (nseg - 1)
    return cost


@pytest.mark.parametrize("base_spec", [GTX480, INTEL920], ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_two_level_charge_matches_access_oracle(base_spec, data):
    # a few sets per level and two CUs, so a batch's blocks share a CU
    # (block j and j + 2), sets conflict and evict, and L2 evicts too
    line = base_spec.line_bytes
    spec = dataclasses.replace(
        base_spec, compute_units=2, l1_bytes=2 * 4 * line, l2_bytes=4 * 8 * line
    )
    t = spec.timing
    ms = MemorySystem(spec)
    l1 = [LRUCache(spec.l1_bytes, line) for _ in range(2)]
    l2 = LRUCache(spec.l2_bytes, line, ways=8)
    dram = np.zeros(2)
    regions: Counter = Counter()
    warm = data.draw(st.lists(st.integers(0, 40), max_size=20))
    for k in warm:
        for cache in (ms.l1[k % 2], l1[k % 2]):
            cache.access(k * line)
        for cache in (ms.l2[0], l2):
            cache.access(k * line)
    nb = data.draw(st.integers(1, 5))
    wpb = data.draw(st.integers(1, 3))
    segs = st.lists(st.integers(0, 40), max_size=4, unique=True)
    for call in range(3):
        cus = [(call + j) % 2 for j in range(nb)]
        nvis = data.draw(st.integers(1, 4))
        visits, blocks = [], []
        for _ in range(nvis):
            rows = data.draw(st.lists(segs, min_size=nb * wpb, max_size=nb * wpb))
            row = np.repeat(np.arange(nb * wpb), [len(r) for r in rows])
            bases = np.array([b * line for r in rows for b in r], dtype=np.int64)
            is_store = data.draw(st.booleans())
            visits.append(("global", row, bases, np.full(bases.size, line), is_store))
            blocks.append(([[b * line for b in r] for r in rows], is_store))
        # small item caps charge the batch in chunks of blocks
        cap = data.draw(st.sampled_from([1, 4, memsys._CHUNK_ITEMS]))
        with mock.patch.object(memsys, "_CHUNK_ITEMS", cap):
            got = ms.charge(visits, np.ones((nvis, nb), np.int64), cus, wpb)
        want = np.zeros((nvis, nb))
        for j in range(nb):
            for v, (rows, is_store) in enumerate(blocks):
                mine = [r for r in rows[j * wpb : (j + 1) * wpb] if r]
                want[v, j] = _walk_global(
                    spec, t, l1, l2, mine, cus[j], is_store, dram, regions
                )
        assert got.tolist() == want.tolist()
        assert ms.dram_bytes.tolist() == dram.tolist()
        assert list(ms.region_counts.items()) == list(regions.items())
        for mine, theirs in zip(list(ms.l1) + list(ms.l2), l1 + [l2]):
            assert mine.stats.snapshot() == theirs.stats.snapshot()
            assert _residency(mine) == _residency(theirs)
