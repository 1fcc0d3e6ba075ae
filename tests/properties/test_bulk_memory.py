"""The interpreter's bulk memory charges against the per-warp oracles.

``GridRunner`` resolves shared-memory bank replays, global coalescing,
texture lines and constant lookups for every warp row of an instruction
in one vectorized pass (:func:`repro.arch.row_segments`,
:func:`repro.arch.bank_replays`), and ``MemorySystem.charge`` charges
the records of a whole batch at once.  Here random warp rows —
strided, scattered and 128B-straddling addresses of every access width,
under full, partial and empty lane masks — must resolve row by row
exactly as ``segments_gt200`` / ``segments_lines`` / ``bank_conflicts``
do, and each block's charge must equal the per-row cost formula summed
over its rows (on the cached path: one warp access after another),
counters and region order included.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import (
    ALL_DEVICES,
    bank_conflicts,
    bank_replays,
    row_segments,
    segments_gt200,
    segments_lines,
)
from repro.compiler import compile_opencl
from repro.kir import KernelBuilder, OPENCL, Scalar
from repro.sim.interp import GridRunner
from repro.sim.memory import FlatMemory
from repro.sim.memsys import MemorySystem

SPECS = list(ALL_DEVICES.values())


@st.composite
def warp_batches(draw, width):
    """(addrs, active, size, nb, rows_per_block) for ``nb`` blocks."""
    nb = draw(st.integers(1, 3))
    nwpb = draw(st.integers(1, 3))
    n = nb * nwpb * width
    size = draw(st.sampled_from([1, 2, 4, 8, 16]))
    pattern = draw(st.sampled_from(["strided", "scattered", "straddle"]))
    if pattern == "strided":
        base = draw(st.integers(0, 1 << 16))
        stride = draw(st.sampled_from([0, 1, 2, 4, 8, 12, 16, 36, 64, 128, 132]))
        addrs = base + stride * np.arange(n, dtype=np.int64)
    elif pattern == "scattered":
        addrs = np.array(
            draw(st.lists(st.integers(0, 1 << 14), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    else:
        # each lane ends 1..15 bytes short of a 128B boundary, so wide
        # accesses straddle into the next segment / line
        seg = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
        off = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
        addrs = np.array(seg, dtype=np.int64) * 128 - np.array(off)
    mask = draw(st.sampled_from(["full", "partial", "empty_rows"]))
    if mask == "full":
        active = None
    else:
        active = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        ).reshape(-1, width)
        if mask == "empty_rows":
            active[:: 2] = False
    return addrs.reshape(-1, width), active, size, nb, nwpb


def _row_lanes(addrs, active, r):
    return addrs[r] if active is None else addrs[r][active[r]]


def _oracle_segments(spec, lanes, size):
    sizes = np.full(lanes.size, size, dtype=np.int64)
    if spec.architecture == "gt200":
        return segments_gt200(lanes, sizes)
    return segments_lines(lanes, sizes, spec.line_bytes)


def _kernel():
    k = KernelBuilder("touch", OPENCL)
    o = k.buffer("o", Scalar.S32)
    k.store(o, k.global_id(0), k.global_id(0))
    return compile_opencl(k.finish(), max_regs=63)


_KERNEL = _kernel()


def _runner(spec, nb, nwpb):
    """A runner over ``nb`` blocks of ``nwpb`` warps each."""
    return GridRunner(
        _KERNEL, spec, MemorySystem(spec), FlatMemory(1 << 16), {"o": 0},
        (nb, 1, 1), (nwpb * spec.warp_width, 1, 1),
    )


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_resolution_matches_per_warp_oracles(spec, data):
    addrs, active, size, _, _ = data.draw(warp_batches(spec.warp_width))
    row, bases, widths = row_segments(spec, addrs, active, size)
    reps = bank_replays(spec, addrs, active)
    ms = MemorySystem(spec)
    trow, tlines = ms.texture_rows(addrs, active, size)
    crow, cbases = ms.const_rows(addrs, active)
    for r in range(addrs.shape[0]):
        lanes = _row_lanes(addrs, active, r)
        mine = row == r
        if not lanes.size:
            assert not (mine.any() or (trow == r).any() or (crow == r).any())
            continue
        ob, ow = _oracle_segments(spec, lanes, size)
        assert bases[mine].tolist() == ob.tolist()
        assert widths[mine].tolist() == ow.tolist()
        assert int(reps[r]) == bank_conflicts(spec, lanes)
        # texture: the distinct 32B lines holding each lane's first and
        # last byte; constant: one lookup per distinct address
        ends = np.union1d(lanes // 32, (lanes + size - 1) // 32) * 32
        assert tlines[trow == r].tolist() == ends.tolist()
        assert cbases[crow == r].tolist() == (np.unique(lanes) // 64 * 64).tolist()


def _charge(spec, rec, nb, nwpb):
    """Charge one visit's record for ``nb`` blocks on CUs 0, 1, ..."""
    ms = MemorySystem(spec)
    cus = [j % spec.compute_units for j in range(nb)]
    cost = ms.charge([rec], np.ones((1, nb), np.int64), cus, nwpb)
    return ms, cus, cost[0]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("is_store", [False, True], ids=["ld", "st"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_global_block_charge_is_the_per_row_sum(spec, is_store, data):
    addrs, active, size, nb, nwpb = data.draw(warp_batches(spec.warp_width))
    rec = ("global",) + row_segments(spec, addrs, active, size) + (is_store,)
    ms, cus, cost = _charge(spec, rec, nb, nwpb)
    t = spec.timing
    ref = MemorySystem(spec)
    nseg = requests = 0
    regions: Counter = Counter()
    for j in range(nb):
        rows = []
        for r in range(j * nwpb, (j + 1) * nwpb):
            lanes = _row_lanes(addrs, active, r)
            if lanes.size:
                rows.append(_oracle_segments(spec, lanes, size))
        if spec.has_global_cache:
            # the cached path charges what one warp access after another
            # costs, block by block and row by row
            # (one 1-byte lane per line base coalesces to that line)
            want = 0.0
            for seg, _ in rows:
                want += ref.access_global(
                    cus[j], seg, np.ones(seg.size, np.int64), is_store
                )
            assert cost[j] == want
            continue
        # the per-row formula, accumulated row by row as a float
        want = 0.0
        for b, w in rows:
            n = b.size
            want += (
                t.tx_cycles * n
                if is_store
                else t.dram_latency + t.tx_cycles * (n - 1)
            )
            for base in b.tolist():
                regions[base >> 8] += 1
        requests += len(rows)
        nseg += sum(b.size for b, _ in rows)
        assert cost[j] == want
        assert ms.dram_bytes[cus[j]] == sum(int(w.sum()) for _, w in rows)
        assert ms.l1[cus[j]].stats.misses == (0 if is_store else sum(b.size for b, _ in rows))
    if spec.has_global_cache:
        state = lambda m: (  # noqa: E731
            m.gmem_requests,
            m.gmem_transactions,
            m.dram_bytes.tolist(),
            list(m.region_counts.items()),
            [c.stats.snapshot() for c in list(m.l1) + list(m.l2)],
        )
        assert state(ms) == state(ref)
        return
    assert ms.gmem_requests == requests
    assert ms.gmem_transactions == nseg
    assert list(ms.region_counts.items()) == list(regions.items())


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_block_charge_is_the_per_row_sum(spec, data):
    addrs, active, _, nb, nwpb = data.draw(warp_batches(spec.warp_width))
    rec = _runner(spec, nb, nwpb)._shared_charge(addrs, active, nb)
    ms, _, cost = _charge(spec, rec, nb, nwpb)
    t = spec.timing
    plain = spec.local_mem_is_plain_memory
    accesses = replays = 0
    for j in range(nb):
        reps = [
            bank_conflicts(spec, lanes)
            for lanes in (
                _row_lanes(addrs, active, r)
                for r in range(j * nwpb, (j + 1) * nwpb)
            )
            if lanes.size
        ]
        want = 0.0
        for rep in reps:
            want += t.shared_latency + (0 if plain else (rep - 1) * 4.0)
        assert cost[j] == want
        accesses += len(reps)
        replays += 0 if plain else sum(r - 1 for r in reps)
    assert ms.shared_accesses == accesses
    assert ms.shared_replays == replays
