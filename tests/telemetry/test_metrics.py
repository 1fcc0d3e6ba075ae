"""Metrics registry: instruments, exact sums and the deterministic merge."""
import itertools
import json
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import metrics as tm


class TestInstruments:
    def test_counter(self):
        reg = tm.MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert reg.counter("x") is c
        assert c.value == 3.5
        assert c.as_dict() == {"type": "counter", "value": 3.5}

    def test_gauge_high_water(self):
        g = tm.MetricsRegistry().gauge("g")
        g.set(4)
        g.set(2)
        g.add(1)
        assert g.value == 3 and g.max == 4

    def test_histogram_buckets(self):
        h = tm.Histogram("h", boundaries=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # <=1, <=10, overflow
        assert h.counts == [2, 1, 1]
        assert h.count == 4 and h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError, match="sorted"):
            tm.Histogram("h", boundaries=(2.0, 1.0))

    def test_histogram_redeclare_with_other_boundaries_is_error(self):
        reg = tm.MetricsRegistry()
        reg.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError, match="re-declared"):
            reg.histogram("h", boundaries=(1.0, 3.0))

    def test_counter_sums_exactly_whatever_the_order(self):
        # float addition would read 0.0 or 2.0 here, by order
        for order in itertools.permutations((1e16, 1.0, -1e16, 1.0)):
            c = tm.Counter("c")
            for v in order:
                c.inc(v)
            assert c.value == 2.0
        h = tm.Histogram("h")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.sum == math.fsum((0.1, 0.2, 0.3)) == 0.6

    def test_sums_cover_subnormals_and_the_largest_double(self):
        c = tm.Counter("c")
        c.inc(5e-324)
        c.inc(5e-324)
        assert c.value == 1e-323
        c.inc(sys.float_info.max)
        assert c.value == sys.float_info.max

    def test_non_finite_increments_keep_ieee_meaning(self):
        c = tm.Counter("c")
        c.inc(1.0)
        c.inc(math.inf)
        assert c.value == math.inf
        c.inc(-math.inf)
        assert math.isnan(c.value)
        h = tm.Histogram("h", boundaries=(1.0,))
        h.observe(-math.inf)
        assert h.sum == -math.inf and h.counts == [1, 0]

    def test_use_registry_scopes_globals(self):
        tm.counter("ambient").inc()
        with tm.use_registry() as reg:
            tm.counter("scoped").inc()
            assert reg.get("ambient") is None
        assert tm.registry().get("scoped") is None


def _merge_all(snapshots, order):
    reg = tm.MetricsRegistry()
    for i in order:
        reg.merge_snapshot(snapshots[i])
    return reg.snapshot()


@st.composite
def worker_observations(draw):
    """Per-worker lists of (counter bumps, gauge levels, histogram samples)."""
    n_workers = draw(st.integers(min_value=1, max_value=4))
    finite = st.floats(
        min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    return [
        {
            "counts": draw(st.lists(finite, max_size=5)),
            "levels": draw(st.lists(finite, max_size=5)),
            "samples": draw(st.lists(finite, max_size=8)),
        }
        for _ in range(n_workers)
    ]


@settings(max_examples=60, deadline=None)
@given(worker_observations(), st.randoms())
def test_merge_order_never_changes_result(workers, rnd):
    """Merging N worker registries is order-independent —
    bucket counts, counter totals and histogram sums (bit for bit), and
    gauge high-water marks all match whatever permutation the scheduler
    delivered them in."""
    snapshots = []
    for w in workers:
        reg = tm.MetricsRegistry()
        for v in w["counts"]:
            reg.counter("c").inc(v)
        for v in w["levels"]:
            reg.gauge("g").set(v)
        for v in w["samples"]:
            reg.histogram("h", boundaries=tm.TIME_BUCKETS_S).observe(v)
        snapshots.append(reg.snapshot())

    order = list(range(len(snapshots)))
    forward = _merge_all(snapshots, order)
    rnd.shuffle(order)
    shuffled = _merge_all(snapshots, order)

    # every instrument is identical, float sums included
    assert json.dumps(forward, sort_keys=True) == json.dumps(shuffled, sort_keys=True)
    # ... and each float sum is exactly the correctly rounded sum of the
    # snapshots' own, whatever the order
    for name, field in (("c", "value"), ("h", "sum")):
        if name in forward:
            parts = [s[name][field] for s in snapshots if name in s]
            assert forward[name][field] == shuffled[name][field] == math.fsum(parts)


def _unit_snapshot(i: int) -> dict:
    """One attempt's snapshot: per-launch floats like a unit reports."""
    reg = tm.MetricsRegistry()
    for k in range(1 + i % 4):
        v = 1e-6 * (1.1 + 0.37 * i + 0.013 * k)
        reg.counter("sim.launches").inc()
        reg.counter("runtime.opencl.launch_overhead_s").inc(v)
        reg.histogram("sim.kernel_s").observe(v / 3)
    return reg.snapshot()


def test_shuffled_merges_of_unit_snapshots_write_equal_bytes():
    snapshots = [_unit_snapshot(i) for i in range(40)]
    docs = set()
    for seed in range(8):
        order = list(range(len(snapshots)))
        random.Random(seed).shuffle(order)
        docs.add(json.dumps(_merge_all(snapshots, order), sort_keys=True))
    assert len(docs) == 1


def test_concurrent_merges_and_bumps_are_exact():
    # the dispatcher's threads merge worker replies into one registry
    # at once while other threads bump it: no bucket, count or float bit
    # may be lost
    snapshots = [_unit_snapshot(i) for i in range(512)]
    reg = tm.MetricsRegistry()

    def bump():
        for _ in range(2000):
            reg.counter("serve.requests").inc()
            reg.histogram("sim.kernel_s").observe(0.0)

    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda part: [reg.merge_snapshot(s) for s in part],
                args=(snapshots[i::8],),
            )
            for i in range(8)
        ] + [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(before)
    assert reg.counter("serve.requests").value == 8000
    want = tm.MetricsRegistry()
    for _ in range(8000):
        want.histogram("sim.kernel_s").observe(0.0)
    want.merge_snapshot(_merge_all(snapshots, range(len(snapshots))))
    assert reg.histogram("sim.kernel_s").as_dict() == want.histogram(
        "sim.kernel_s"
    ).as_dict()
    h = reg.histogram("sim.kernel_s")
    assert h.count == sum(h.counts) == 8000 + sum(
        s["sim.kernel_s"]["count"] for s in snapshots
    )
    assert reg.counter("runtime.opencl.launch_overhead_s").value == math.fsum(
        s["runtime.opencl.launch_overhead_s"]["value"] for s in snapshots
    )


def _bump_in_child():
    tm.counter("child.bumps").inc()


def test_forked_child_never_waits_on_a_lock_the_parent_held():
    # a dispatcher thread may be merging (lock held) while another forks
    # a worker; the worker must still be able to bump its metrics
    import multiprocessing

    held, release = threading.Event(), threading.Event()

    def hold():
        with tm.registry()._lock:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(60)
        child = multiprocessing.get_context("fork").Process(target=_bump_in_child)
        child.start()
        child.join(60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
    finally:
        release.set()
        holder.join(60)
    assert not alive and child.exitcode == 0


def test_merge_creates_missing_metrics_and_rejects_boundary_mismatch():
    a = tm.MetricsRegistry()
    b = tm.MetricsRegistry()
    b.counter("only.b").inc(3)
    b.histogram("h", boundaries=(1.0, 2.0)).observe(1.5)
    a.merge_snapshot(b.snapshot())
    assert a.counter("only.b").value == 3
    c = tm.MetricsRegistry()
    c.histogram("h", boundaries=(5.0, 6.0)).observe(5.5)
    with pytest.raises(ValueError):
        c.merge_snapshot(b.snapshot())


def test_unknown_instrument_type_is_skipped_not_fatal():
    reg = tm.MetricsRegistry()
    reg.merge_snapshot({"weird": {"type": "summary", "value": 1}})
    assert reg.get("weird") is None
