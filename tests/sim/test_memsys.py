import numpy as np
import pytest

from repro.arch import ALL_DEVICES, CELLBE, GTX280, GTX480, INTEL920
from repro.compiler import compile_cuda
from repro.kir import AddrSpace, CUDA, KernelBuilder, Scalar
from repro.sim import SimDevice
from repro.sim.memsys import MemorySystem


def _addrs(*vals):
    return np.asarray(vals, dtype=np.int64)


def _sizes(n, s=4):
    return np.full(n, s, dtype=np.int64)


class TestGlobalPath:
    def test_gt200_load_costs_full_latency(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        c = ms.access_global(0, a, _sizes(32), is_store=False)
        assert c >= GTX280.timing.dram_latency

    def test_gt200_never_caches(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        c1 = ms.access_global(0, a, _sizes(32), is_store=False)
        c2 = ms.access_global(0, a, _sizes(32), is_store=False)
        assert c1 == c2  # repeat access: same cost, no cache

    def test_fermi_second_access_hits_l1(self):
        ms = MemorySystem(GTX480)
        a = _addrs(*(i * 4 for i in range(32)))
        miss = ms.access_global(0, a, _sizes(32), is_store=False)
        hit = ms.access_global(0, a, _sizes(32), is_store=False)
        assert hit < miss
        assert hit == GTX480.timing.l1_hit

    def test_fermi_l2_shared_across_cus(self):
        ms = MemorySystem(GTX480)
        a = _addrs(*(i * 4 for i in range(32)))
        ms.access_global(0, a, _sizes(32), is_store=False)  # CU0 fills L2
        cu1 = ms.access_global(1, a, _sizes(32), is_store=False)
        assert cu1 == GTX480.timing.l2_hit + 0  # L1 miss, L2 hit

    def test_store_cheaper_than_load(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        st = ms.access_global(0, a, _sizes(32), is_store=True)
        ld = ms.access_global(0, a, _sizes(32), is_store=False)
        assert st < ld

    def test_traffic_accounted_per_cu(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        ms.access_global(3, a, _sizes(32), is_store=False)
        assert ms.dram_bytes[3] > 0
        assert ms.dram_bytes[0] == 0

    def test_region_counts_track_dram_hits(self):
        ms = MemorySystem(GTX280)
        a = _addrs(0, 4, 8)
        ms.access_global(0, a, _sizes(3), is_store=False)
        assert sum(ms.region_counts.values()) >= 1


class TestConstPath:
    def test_broadcast_single_address_cheap_after_warmup(self):
        ms = MemorySystem(GTX280)
        a = np.zeros(32, dtype=np.int64)
        ms.access_const(0, a)  # compulsory miss
        hit = ms.access_const(0, a)
        assert hit == GTX280.timing.const_hit

    def test_distinct_addresses_serialize(self):
        ms = MemorySystem(GTX280)
        same = np.zeros(32, dtype=np.int64)
        spread = np.arange(32, dtype=np.int64) * 4
        ms.access_const(0, same)
        ms.access_const(0, spread)  # warm
        t_same = ms.access_const(0, same)
        t_spread = ms.access_const(0, spread)
        assert t_spread > t_same  # one broadcast vs. serialized words


class TestTexturePath:
    def test_reuse_hits_cache(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        miss = ms.access_texture(0, a, _sizes(32))
        hit = ms.access_texture(0, a, _sizes(32))
        assert hit < miss

    def test_texture_cache_per_cu(self):
        ms = MemorySystem(GTX280)
        a = _addrs(*(i * 4 for i in range(32)))
        ms.access_texture(0, a, _sizes(32))
        other = ms.access_texture(1, a, _sizes(32))  # cold on CU1
        assert other > ms.access_texture(0, a, _sizes(32))


class TestSharedPath:
    def test_conflict_free_base_cost(self):
        ms = MemorySystem(GTX480)
        a = np.arange(32, dtype=np.int64) * 4
        assert ms.access_shared(0, a) == GTX480.timing.shared_latency

    def test_conflicts_add_replays(self):
        ms = MemorySystem(GTX480)
        conflict = np.arange(32, dtype=np.int64) * 4 * 32  # same bank
        free = np.arange(32, dtype=np.int64) * 4
        assert ms.access_shared(0, conflict) > ms.access_shared(0, free)

    def test_cpu_local_memory_flat_cost(self):
        ms = MemorySystem(INTEL920)
        conflict = np.arange(4, dtype=np.int64) * 4 * 32
        free = np.arange(4, dtype=np.int64) * 4
        # no banked SRAM on a CPU: no conflict concept
        assert ms.access_shared(0, conflict) == ms.access_shared(0, free)


class TestLocalSpillPath:
    def test_gt200_spills_cost_dram_traffic(self):
        ms = MemorySystem(GTX280)
        before = ms.dram_bytes[0]
        c = ms.access_local(0, 4, 4)
        assert ms.dram_bytes[0] > before
        assert c > GTX280.timing.tx_cycles

    def test_fermi_spills_land_in_l1(self):
        ms = MemorySystem(GTX480)
        before = ms.dram_bytes[0]
        c = ms.access_local(0, 4, 4)
        assert ms.dram_bytes[0] == before  # cached
        assert c == GTX480.timing.l1_hit


@pytest.mark.parametrize("spec", ALL_DEVICES.values(), ids=lambda s: s.name)
def test_bulk_constants_are_integers(spec):
    """``MemorySystem.charge`` sums a batch's memory costs per (visit,
    block) in whatever order numpy adds them: L1/L2 rows
    (``l1_hit``, ``l2_hit``, ``dram_latency``, ``tx_cycles``), constant
    lookups (``const_hit``), shared banks (``shared_latency``) and the
    cache-less global path.  Those sums equal the per-row float fold
    only because every latency in them is integer-valued; a fractional
    constant would move the timing model by an ulp, so it must fail here
    first.  Texture rows are the exception that keeps a row-ordered
    fold: ``tex_hit`` plus ``0.2 * tx_cycles`` per extra line is
    fractional."""
    t = spec.timing
    for name in (
        "dram_latency", "tx_cycles", "shared_latency", "l1_hit", "l2_hit", "const_hit",
    ):
        value = getattr(t, name)
        assert float(value).is_integer(), f"{spec.name}.{name} = {value}"


def _traffic_kernel():
    """Global loads and stores, a constant read and a register spill."""
    k = KernelBuilder("traffic", CUDA)
    a = k.buffer("a", Scalar.F32)
    c = k.buffer("c", Scalar.F32, AddrSpace.CONST)
    o = k.buffer("o", Scalar.F32)
    i = k.let("i", k.global_id(0), Scalar.S32)
    # many live loaded values: a 12-register budget spills them
    vals = [k.let(f"v{j}", a[(i * 3 + j) % 1000]) for j in range(24)]
    total = vals[0] * c[i % 7]
    for v in vals[1:]:
        total = total + v
    k.store(o, i, total)
    return k.finish()


@pytest.mark.parametrize("spec", [GTX480, INTEL920], ids=lambda s: s.name)
def test_dram_adds_are_integers(spec):
    """Every ``dram_bytes`` add of a launch is a whole number of bytes.

    ``charge`` adds one per-CU sum per batch, which equals the add-by-add
    fold only while every add is integer-valued (one cached segment is
    one line); the launch memo replays these adds.
    """
    ptx = compile_cuda(_traffic_kernel(), max_regs=12)
    dev = SimDevice(spec, memoize=False)
    data = np.linspace(-3, 3, 1000).astype(np.float32)
    pa, pc, po = dev.alloc(data.nbytes), dev.alloc(28), dev.alloc(data.nbytes)
    dev.upload(pa, data)
    dev.upload(pc, np.arange(7, dtype=np.float32))
    dev.memsys.begin_dram_log()
    for _ in range(2):
        dev.launch(ptx, 8, 96, {"a": pa, "c": pc, "o": po})
    log = dev.memsys.end_dram_log()
    assert log and all(float(amount).is_integer() for _, amount in log)
    assert dev.memsys.spill_bytes > 0
    assert sum(amount for _, amount in log) == dev.memsys.dram_bytes.sum()
