"""Regression tests for the two coalescer correctness bugs.

Both bugs silently undercounted DRAM traffic:

* ``segments_gt200`` dropped the trailing segment of an access that
  straddles a 128B boundary (addr=124, size=8 lost bytes [128, 132));
* ``segments_lines`` only returned the first and last line of an access,
  so a span of three or more lines lost every middle line.
"""
import numpy as np
import pytest

from repro.arch import GTX280, GTX480, coalesce, segments_gt200, segments_lines


def _covered(bases, widths):
    out = set()
    for b, w in zip(bases.tolist(), widths.tolist()):
        out.update(range(b, b + w))
    return out


class TestGT200StraddleRegression:
    def test_straddling_access_keeps_trailing_bytes(self):
        # addr=124 size=8 touches [124, 132): both segment 0 and segment 1
        addrs = np.array([124], dtype=np.int64)
        sizes = np.array([8], dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        cov = _covered(bases, widths)
        assert all(b in cov for b in range(124, 132)), (
            "bytes beyond the 128B boundary were dropped"
        )
        assert bases.size == 2  # one transaction per touched segment

    def test_straddle_traffic_counted(self):
        addrs = np.array([124], dtype=np.int64)
        sizes = np.array([8], dtype=np.int64)
        traffic = coalesce(GTX280, addrs, sizes)[1].sum()
        # two shrunk 32B transactions, not one
        assert traffic == 64

    def test_half_warp_with_one_straddler(self):
        # 15 aligned lanes + 1 straddler: the straddler's tail segment
        # must appear even though every other lane stays in segment 0
        addrs = np.array([i * 8 for i in range(15)] + [124], dtype=np.int64)
        sizes = np.full(16, 8, dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        cov = _covered(bases, widths)
        assert all(b in cov for b in range(124, 132))

    def test_aligned_accesses_unchanged(self):
        # the fix must not perturb the classic unit-stride result
        addrs = np.arange(32, dtype=np.int64) * 4
        sizes = np.full(32, 4, dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        assert bases.size == 2 and set(widths.tolist()) == {64}

    def test_giant_access_spans_interior_segments(self):
        # a >128B access touches interior segments, not just its ends
        addrs = np.array([0], dtype=np.int64)
        sizes = np.array([300], dtype=np.int64)
        bases, widths = segments_gt200(addrs, sizes)
        cov = _covered(bases, widths)
        assert all(b in cov for b in range(0, 300))


class TestFermiLineSpanRegression:
    def test_three_line_span_includes_middle_line(self):
        # addr=0 size=300 with 128B lines touches lines 0, 128, 256
        addrs = np.array([0], dtype=np.int64)
        sizes = np.array([300], dtype=np.int64)
        bases, widths = segments_lines(addrs, sizes, 128)
        assert bases.tolist() == [0, 128, 256]
        assert widths.tolist() == [128, 128, 128]

    def test_five_line_span(self):
        addrs = np.array([64], dtype=np.int64)
        sizes = np.array([512], dtype=np.int64)
        bases, _ = segments_lines(addrs, sizes, 128)
        assert bases.tolist() == [0, 128, 256, 384, 512]

    def test_two_line_straddle_still_two_lines(self):
        addrs = np.array([124], dtype=np.int64)
        sizes = np.array([8], dtype=np.int64)
        bases, _ = segments_lines(addrs, sizes, 128)
        assert bases.tolist() == [0, 128]

    def test_fermi_traffic_counts_middle_lines(self):
        addrs = np.array([0], dtype=np.int64)
        sizes = np.array([300], dtype=np.int64)
        traffic = coalesce(GTX480, addrs, sizes)[1].sum()
        assert traffic == 3 * 128

    def test_duplicate_lines_still_deduplicated(self):
        addrs = np.array([0, 4, 8, 300, 304], dtype=np.int64)
        sizes = np.full(5, 4, dtype=np.int64)
        bases, _ = segments_lines(addrs, sizes, 128)
        assert bases.tolist() == [0, 256]


class TestTimingBoundClassification:
    def test_bandwidth_bound_launch_reports_memory(self):
        """A launch won by the device-wide bandwidth term must not be
        classified from the summed per-CU comp/mem totals."""
        from repro.arch import GTX480, occupancy
        from repro.sim.interp import LaunchStats
        from repro.sim.timing import kernel_time

        n = GTX480.compute_units
        stats = LaunchStats(n)
        # tiny per-CU cycles: per-CU terms are negligible...
        stats.comp_cycles[:] = 100.0
        stats.mem_cycles[:] = 10.0
        occ = occupancy(GTX480, 256, 16, 0)
        # ...but an enormous DRAM total makes bandwidth the winner
        dram = np.full(n, 1e9 / n)
        t = kernel_time(GTX480, stats, dram, occ)
        assert t.bound_term == "bandwidth"
        assert t.bound == "memory"
        assert t.bw_s > 0

    def test_compute_bound_launch_reports_compute(self):
        from repro.arch import GTX480, occupancy
        from repro.sim.interp import LaunchStats
        from repro.sim.timing import kernel_time

        n = GTX480.compute_units
        stats = LaunchStats(n)
        stats.comp_cycles[:] = 1e6
        stats.mem_cycles[:] = 10.0
        occ = occupancy(GTX480, 256, 16, 0)
        t = kernel_time(GTX480, stats, dram_bytes=np.zeros(n), occ=occ)
        assert t.bound_term == "compute"
        assert t.bound == "compute"

    def test_bound_term_from_winning_cu_not_sums(self):
        """Regression: summed per-CU totals used to disagree with the
        term that won ``max(per_cu, bw_total, hot)``.

        One compute-bound CU decides the launch, but the *summed* memory
        seconds across the other CUs exceed the summed compute seconds —
        the pre-fix classifier called this launch memory-bound.
        """
        from repro.arch import GTX480, occupancy
        from repro.sim.interp import LaunchStats
        from repro.sim.timing import kernel_time

        n = GTX480.compute_units
        stats = LaunchStats(n)
        # the slowest CU is purely compute-bound...
        stats.comp_cycles[0] = 1e6
        stats.mem_cycles[0] = 0.0
        # ...every other CU has moderate memory time, each below CU0's
        # compute time but together summing far above it
        stats.comp_cycles[1:] = 0.0
        stats.mem_cycles[1:] = 2e7
        occ = occupancy(GTX480, 256, 16, 0)
        t = kernel_time(GTX480, stats, dram_bytes=np.zeros(n), occ=occ)
        assert t.mem_s > t.comp_s  # the sums say "memory"...
        assert t.bound_term == "compute"  # ...but the winning term says no
        assert t.bound == "compute"
