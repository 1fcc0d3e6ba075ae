"""Tests for the per-launch profiling subsystem (``repro.prof``)."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.arch import GTX280, GTX480
from repro.kir import CUDA, KernelBuilder, OPENCL, Scalar
from repro.prof import (
    LaunchProfile,
    aggregate,
    chrome_trace,
    render_profile,
    render_run,
    write_chrome_trace,
)
from repro.runtime import cuda as rt_cuda
from repro.runtime import opencl as cl


def _vadd(dialect):
    k = KernelBuilder("vadd", dialect)
    a = k.buffer("a", Scalar.F32)
    b = k.buffer("b", Scalar.F32)
    c = k.buffer("c", Scalar.F32)
    i = k.let("i", k.global_id(0))
    k.store(c, i, a[i] + b[i])
    return k.finish()


def _cuda_launch(spec=GTX480, launches=1):
    ctx = rt_cuda.CudaContext(spec)
    p = ctx.malloc(256)
    fn = ctx.compile(_vadd(CUDA))
    for _ in range(launches):
        fn.launch(2, 32, a=p, b=p, c=p)
    return ctx


class TestLaunchProfileCapture:
    def test_launch_attaches_profile(self):
        ctx = _cuda_launch()
        prof = ctx.profile_query()
        assert isinstance(prof, LaunchProfile)
        assert prof.kernel == "vadd"
        assert prof.api == "cuda"
        assert prof.device == GTX480.name

    def test_invariants_hold(self):
        ctx = _cuda_launch()
        prof = ctx.profile_query()
        assert prof.check() == []
        assert prof.transactions_per_request >= 1.0
        assert prof.dram_bytes == prof.timing_dram_bytes
        for name, st in prof.caches.items():
            assert st.hits + st.misses == st.accesses, name

    def test_issue_cycles_cover_table_v_classes(self):
        ctx = _cuda_launch()
        prof = ctx.profile_query()
        assert prof.issue_cycles  # at least one class populated
        assert sum(prof.issue_cycles.values()) > 0
        # a load/store kernel must spend cycles on data movement
        assert any("Data" in k for k in prof.issue_cycles)

    def test_host_phases_recorded(self):
        ctx = _cuda_launch()
        prof = ctx.profile_query()
        assert prof.compile_s > 0  # wall-clock compile time
        assert prof.launch_overhead_s > 0
        assert prof.start_s >= prof.queued_s
        assert prof.end_s > prof.start_s
        assert prof.total_s > 0

    def test_per_launch_deltas_not_cumulative(self):
        ctx = _cuda_launch(launches=3)
        profs = ctx.profiles
        assert len(profs) == 3
        # counters are per launch, so repeat launches match (caches may
        # warm up, but request/transaction counts are deterministic)
        reqs = {p.gmem_requests for p in profs}
        assert len(reqs) == 1
        for p in profs:
            assert p.check() == []

    def test_gt200_null_cache_path(self):
        ctx = _cuda_launch(spec=GTX280)
        prof = ctx.profile_query()
        assert prof.check() == []
        assert "null" in prof.caches
        assert "l1" not in prof.caches
        # compute 1.x has no hardware global-load cache: never hits
        assert prof.caches["null"].hits == 0


class TestOpenCLProfiling:
    def _launch(self):
        ctx = cl.create_context_for("GTX480")
        q = cl.CommandQueue(ctx)
        b = cl.Buffer.create(ctx, 256)
        prog = cl.Program(ctx, [_vadd(OPENCL)]).build()
        kern = prog.kernel("vadd").set_args(a=b, b=b, c=b)
        return prog, q.enqueue_nd_range(kern, 64, 32)

    def test_event_carries_profile(self):
        prog, ev = self._launch()
        assert isinstance(ev.profile, LaunchProfile)
        assert ev.profile.api == "opencl"
        assert ev.profile.compile_s == prog.build_s > 0
        assert ev.profile.check() == []

    def test_get_profiling_info_nanoseconds(self):
        _, ev = self._launch()
        q = ev.get_profiling_info("CL_PROFILING_COMMAND_QUEUED")
        s = ev.get_profiling_info("CL_PROFILING_COMMAND_START")
        e = ev.get_profiling_info("CL_PROFILING_COMMAND_END")
        assert isinstance(q, int) and isinstance(e, int)
        assert q <= s <= e
        assert e - s == pytest.approx(ev.kernel_seconds * 1e9, abs=1)

    def test_get_profiling_info_rejects_unknown_param(self):
        _, ev = self._launch()
        with pytest.raises(cl.CLError, match="INVALID_VALUE"):
            ev.get_profiling_info("CL_PROFILING_COMMAND_COMPLETE")


class TestAggregate:
    def test_counters_sum(self):
        ctx = _cuda_launch(launches=4)
        profs = ctx.profiles
        agg = aggregate(profs, label="all")
        assert agg.kernel == "all"
        assert agg.gmem_requests == sum(p.gmem_requests for p in profs)
        assert agg.dram_bytes == pytest.approx(
            sum(p.dram_bytes for p in profs)
        )
        assert agg.total_s == pytest.approx(sum(p.total_s for p in profs))
        assert agg.check() == []

    def test_compile_time_deduped_per_kernel(self):
        ctx = _cuda_launch(launches=4)
        profs = ctx.profiles
        agg = aggregate(profs)
        # one kernel compiled once, launched four times
        assert agg.compile_s == pytest.approx(profs[0].compile_s)

    def test_empty_returns_none(self):
        assert aggregate([]) is None


class TestChromeTrace:
    def test_trace_structure(self, tmp_path):
        ctx = _cuda_launch(launches=2)
        trace = chrome_trace(ctx.profiles, "unit")
        evs = trace["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"M", "X", "C"} <= phases
        kernels = [
            e for e in evs if e["ph"] == "X" and e.get("cat") == "kernel"
        ]
        assert len(kernels) == 2
        for e in kernels:
            assert e["dur"] > 0
            assert e["args"]["transactions_per_request"] >= 1.0
        # slices sit on the virtual timeline in launch order
        assert kernels[0]["ts"] <= kernels[1]["ts"]

    def test_write_round_trips_as_json(self, tmp_path):
        ctx = _cuda_launch()
        path = write_chrome_trace(ctx.profiles, str(tmp_path / "t.json"))
        with open(path) as f:
            loaded = json.load(f)
        assert loaded["traceEvents"]
        assert loaded["displayTimeUnit"] == "ms"


class TestReport:
    def test_render_profile_mentions_key_counters(self):
        ctx = _cuda_launch()
        text = render_profile(ctx.profile_query())
        assert "vadd" in text
        assert "per request" in text
        assert "bound" in text

    def test_render_run_table(self):
        ctx = _cuda_launch(launches=2)
        text = render_run(ctx.profiles, title="unit run")
        assert "unit run" in text
        assert text.count("vadd") >= 2


class TestExecute:
    def test_execute_launches_end_to_end(self):
        from repro.exec.unit import execute, make_unit

        r = execute(make_unit("BFS", "cuda", "gtx480", "small"))
        assert r.unit.device == "GTX480"  # lenient device spelling
        assert r.launches
        assert [v for p in r.launches for v in p.check()] == []
        agg = aggregate(r.launches, label="BFS/cuda")
        assert agg.gmem_requests > 0
        assert agg.transactions_per_request >= 1.0


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["--device", "gtx480"], "prof_md_bfs_cuda_gtx480.txt"),
        (["--api", "opencl", "--device", "gtx280"], "prof_md_bfs_opencl_gtx280.txt"),
    ],
)
def test_cli_output_matches_golden(argv, fixture, capsys):
    """The CLI's report, with the front end's wall-clock compile time masked."""
    from repro.prof.__main__ import main

    assert main(["MD", "BFS", *argv, "--size", "small", "--no-trace"]) == 0
    out = re.sub(r"(?m)^  compile .*$", "  compile         <wall>", capsys.readouterr().out)
    assert out == (FIXTURES / fixture).read_text()
