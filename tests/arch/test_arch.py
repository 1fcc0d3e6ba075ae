import numpy as np
import pytest

from repro.arch import (
    ALL_DEVICES,
    CELLBE,
    GTX280,
    GTX480,
    HD5870,
    INTEL920,
    LRUCache,
    bank_conflicts,
    coalesce,
    device_by_name,
    null_cache,
    occupancy,
    segments_gt200,
    segments_lines,
    theoretical_bandwidth_gbs,
    theoretical_flops_gfs,
)


class TestPeaks:
    """Equations (2) and (3) must reproduce the paper's numbers exactly."""

    def test_tp_bw_gtx280(self):
        assert theoretical_bandwidth_gbs(GTX280) == pytest.approx(141.696, abs=0.1)

    def test_tp_bw_gtx480(self):
        assert theoretical_bandwidth_gbs(GTX480) == pytest.approx(177.408, abs=0.1)

    def test_tp_flops_gtx280(self):
        assert theoretical_flops_gfs(GTX280) == pytest.approx(933.12, abs=0.1)

    def test_tp_flops_gtx480(self):
        assert theoretical_flops_gfs(GTX480) == pytest.approx(1344.96, abs=0.1)


class TestSpecs:
    def test_table4_values(self):
        assert GTX280.compute_units == 30 and GTX280.cores == 240
        assert GTX480.cores == 480
        assert HD5870.cores == 1600 and HD5870.core_clock_mhz == 850
        assert GTX280.miw_bits == 512 and GTX480.miw_bits == 384
        assert HD5870.miw_bits == 256

    def test_wavefront_widths(self):
        assert GTX280.warp_width == 32 and GTX480.warp_width == 32
        assert HD5870.warp_width == 64  # the RdxS FL mechanism

    def test_r_values(self):
        assert GTX280.flops_per_core_cycle == 3.0  # dual-issue mul+mad
        assert GTX480.flops_per_core_cycle == 2.0

    def test_cache_presence(self):
        assert not GTX280.has_global_cache  # the Sobel/Fig. 8 crux
        assert GTX480.has_global_cache

    def test_cuda_support(self):
        assert GTX280.supports_cuda() and GTX480.supports_cuda()
        for d in (HD5870, INTEL920, CELLBE):
            assert not d.supports_cuda()

    def test_device_lookup(self):
        assert device_by_name("GTX480") is GTX480
        with pytest.raises(KeyError):
            device_by_name("GTX999")


class TestCoalescing:
    def test_fermi_unit_stride_one_line(self):
        addrs = np.arange(32, dtype=np.int64) * 4 + 1024
        sizes = np.full(32, 4, dtype=np.int64)
        bases, widths = segments_lines(addrs, sizes, 128)
        assert bases.size == 1 and widths[0] == 128

    def test_fermi_strided_many_lines(self):
        addrs = np.arange(32, dtype=np.int64) * 128
        sizes = np.full(32, 4, dtype=np.int64)
        bases, _ = segments_lines(addrs, sizes, 128)
        assert bases.size == 32

    def test_gt200_unit_stride_two_half_warps(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        sizes = np.full(32, 4, dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        assert bases.size == 2  # one 64B segment per half-warp
        assert set(widths.tolist()) == {64}

    def test_gt200_same_address_broadcast_single_small_segment(self):
        addrs = np.full(32, 4096, dtype=np.int64)
        sizes = np.full(32, 4, dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        assert bases.size == 2 and set(widths.tolist()) == {32}

    def test_gt200_scattered_worst_case(self):
        addrs = np.arange(32, dtype=np.int64) * 256
        sizes = np.full(32, 4, dtype=np.int64)
        bases, _ = segments_gt200(addrs, sizes)
        assert bases.size == 32

    def test_coalesce_returns_traffic(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        sizes = np.full(32, 4, dtype=np.int64)
        bytes_gt = coalesce(GTX280, addrs, sizes)[1].sum()
        bytes_fermi = coalesce(GTX480, addrs, sizes)[1].sum()
        assert bytes_gt == 128 and bytes_fermi == 128

    def test_empty_access(self):
        a = np.array([], dtype=np.int64)
        traffic = coalesce(GTX480, a, a)[1].sum()
        assert traffic == 0


class TestBankConflicts:
    def test_unit_stride_no_conflict(self):
        addrs = np.arange(32, dtype=np.int64) * 4
        assert bank_conflicts(GTX480, addrs) == 1
        assert bank_conflicts(GTX280, addrs) == 1

    def test_stride_two_conflicts(self):
        addrs = np.arange(32, dtype=np.int64) * 8
        assert bank_conflicts(GTX480, addrs) == 2

    def test_same_word_broadcast_free(self):
        addrs = np.zeros(32, dtype=np.int64)
        assert bank_conflicts(GTX480, addrs) == 1

    def test_padded_transpose_tile_conflict_free(self):
        # the TranP trick: column accesses through a 17-wide tile
        ty = np.arange(16, dtype=np.int64)
        addrs = (ty * 17) * 4
        assert bank_conflicts(GTX280, addrs) == 1

    def test_unpadded_transpose_tile_conflicts(self):
        ty = np.arange(16, dtype=np.int64)
        addrs = (ty * 16) * 4
        assert bank_conflicts(GTX280, addrs) == 16


class TestCaches:
    def test_lru_hit_after_fill(self):
        c = LRUCache(1024, 64)
        assert not c.access(0)
        assert c.access(0)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_eviction_order(self):
        c = LRUCache(4 * 64, 64, ways=4)  # one set of 4 ways
        for b in range(0, 5 * 64, 64):
            c.access(b)
        assert not c.access(0)  # evicted (LRU)
        assert c.access(4 * 64)  # most recent survives

    def test_touch_refreshes(self):
        c = LRUCache(4 * 64, 64, ways=4)
        for b in range(0, 4 * 64, 64):
            c.access(b)
        c.access(0)  # refresh
        c.access(4 * 64)  # evicts 64, not 0
        assert c.access(0)

    def test_null_cache_always_misses(self):
        c = null_cache()
        assert not c.access(0)
        assert not c.access(0)

    def test_invalidate(self):
        c = LRUCache(1024, 64)
        c.access(0)
        c.invalidate()
        assert not c.access(0)


class TestOccupancy:
    def test_thread_limited(self):
        occ = occupancy(GTX280, 256, regs_per_thread=8, shared_per_block=0)
        assert occ.blocks_per_cu == 4  # 1024 threads / 256
        assert occ.warps_per_cu == 32

    def test_register_limited(self):
        occ = occupancy(GTX280, 256, regs_per_thread=40, shared_per_block=0)
        assert occ.limiter == "registers"
        assert occ.blocks_per_cu == 1

    def test_shared_limited(self):
        occ = occupancy(GTX280, 64, regs_per_thread=8, shared_per_block=9000)
        assert occ.limiter == "shared"
        assert occ.blocks_per_cu == 1

    def test_does_not_fit(self):
        occ = occupancy(GTX280, 256, regs_per_thread=500, shared_per_block=0)
        assert occ.blocks_per_cu == 0 and occ.limiter == "does-not-fit"

    def test_block_cap(self):
        occ = occupancy(GTX480, 32, regs_per_thread=4, shared_per_block=0)
        assert occ.blocks_per_cu == GTX480.max_blocks_per_cu
