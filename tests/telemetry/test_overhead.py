"""The telemetry layer's overhead bound (ISSUE acceptance criterion):
a warm-cache sweep with tracer + metrics active stays within 5% of the
same sweep with telemetry off, in CPU time."""
import contextlib
import time

from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.telemetry import spans as tspans

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]
SERVES_PER_UNIT = 50
TRIALS = 5


def _warm_pass(cache_dir, telemetry_on: bool) -> float:
    """One timed warm sweep: disk-hit prewarm + memo-hit serve storm."""
    ctx = (
        tspans.use_tracer(tspans.Tracer(run_id="overhead"))
        if telemetry_on
        else contextlib.nullcontext()
    )
    t0 = time.process_time()
    with ctx:
        ex = rexec.SweepExecutor(cache=cache_dir, progress=False)
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
            for u in UNITS:
                for _ in range(SERVES_PER_UNIT):
                    ex.run_unit(u)
    return time.process_time() - t0


def test_warm_sweep_within_5_percent_with_telemetry_on(tmp_path):
    # populate the disk cache once, untimed
    ex = rexec.SweepExecutor(cache=tmp_path, progress=False)
    with rexec.use_executor(ex):
        ex.prewarm(UNITS)
    assert ex.stats.misses == len(UNITS)

    # alternate the arms so machine noise hits both alike, time each in
    # this process's CPU seconds (time other processes take from a
    # loaded host does not count), and gate on best-of
    off, on = [], []
    for _ in range(TRIALS):
        off.append(_warm_pass(tmp_path, False))
        on.append(_warm_pass(tmp_path, True))
    off, on = min(off), min(on)
    # 5% relative bound, with a small absolute floor so a sub-ms warm
    # pass cannot fail on timer granularity alone
    assert on <= off * 1.05 + 0.005, (
        f"telemetry-on warm sweep {on:.4f}s vs off {off:.4f}s "
        f"(+{(on / off - 1) * 100:.1f}%)"
    )
