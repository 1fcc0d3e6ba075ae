import numpy as np
import pytest

from repro.arch import CELLBE, GTX280, GTX480, HD5870, INTEL920
from repro.kir import CUDA, KernelBuilder, OPENCL, Scalar
from repro.runtime import cuda as rt_cuda
from repro.runtime import opencl as cl
from repro.runtime.overhead import (
    cuda_launch_overhead_s,
    opencl_launch_overhead_s,
)
from repro.telemetry import metrics


def _vadd(dialect):
    k = KernelBuilder("vadd", dialect)
    a = k.buffer("a", Scalar.F32)
    b = k.buffer("b", Scalar.F32)
    c = k.buffer("c", Scalar.F32)
    i = k.let("i", k.global_id(0))
    k.store(c, i, a[i] + b[i])
    return k.finish()


class TestCudaRuntime:
    def test_cuda_rejects_non_nvidia(self):
        with pytest.raises(rt_cuda.CudaError, match="NVIDIA"):
            rt_cuda.CudaContext(HD5870)

    def test_end_to_end(self, rng):
        ctx = rt_cuda.CudaContext(GTX480)
        A = rng.uniform(0, 1, 64).astype(np.float32)
        B = rng.uniform(0, 1, 64).astype(np.float32)
        pa, pb, pc = ctx.malloc(64), ctx.malloc(64), ctx.malloc(64)
        ctx.memcpy_htod(pa, A)
        ctx.memcpy_htod(pb, B)
        fn = ctx.compile(_vadd(CUDA))
        fn.launch(2, 32, a=pa, b=pb, c=pc)
        assert np.allclose(ctx.memcpy_dtoh(pc), A + B)

    def test_virtual_clock_monotone(self, rng):
        ctx = rt_cuda.CudaContext(GTX280)
        t0 = ctx.now
        p = ctx.malloc(64)
        ctx.memcpy_htod(p, np.zeros(64, dtype=np.float32))
        assert ctx.now > t0

    def test_events_measure_kernel_time(self, rng):
        ctx = rt_cuda.CudaContext(GTX480)
        p = ctx.malloc(64)
        fn = ctx.compile(_vadd(CUDA))
        e0 = ctx.event_record()
        fn.launch(2, 32, a=p, b=p, c=p)
        e1 = ctx.event_record()
        assert e1.elapsed_since(e0) > 0

    def test_oversized_copy_rejected(self):
        ctx = rt_cuda.CudaContext(GTX480)
        p = ctx.malloc(4)
        with pytest.raises(rt_cuda.CudaError, match="larger"):
            ctx.memcpy_htod(p, np.zeros(100, dtype=np.float32))


class TestOpenCLRuntime:
    def test_platform_inventory(self):
        plats = cl.get_platforms()
        names = {p.name for p in plats}
        assert any("NVIDIA" in n for n in names)
        assert any("AMD" in n for n in names)
        assert any("IBM" in n for n in names)
        devices = {d.name for p in plats for d in p.get_devices()}
        assert devices == {"GTX480", "GTX280", "HD5870", "Intel920", "Cell/BE"}

    def test_device_type_filter(self):
        amd = [p for p in cl.get_platforms() if "AMD" in p.name][0]
        gpus = amd.get_devices(cl.DeviceType.GPU)
        cpus = amd.get_devices(cl.DeviceType.CPU)
        assert [d.name for d in gpus] == ["HD5870"]
        assert [d.name for d in cpus] == ["Intel920"]
        with pytest.raises(cl.CLError, match="NOT_FOUND"):
            amd.get_devices(cl.DeviceType.ACCELERATOR)

    def test_end_to_end_all_devices(self, rng):
        for p in cl.get_platforms():
            for d in p.get_devices():
                ctx = cl.Context([d])
                q = cl.CommandQueue(ctx)
                A = rng.uniform(0, 1, 64).astype(np.float32)
                ba = cl.Buffer.create(ctx, 64)
                bc = cl.Buffer.create(ctx, 64)
                q.enqueue_write_buffer(ba, A)
                prog = cl.Program(ctx, [_vadd(OPENCL)]).build()
                kern = prog.kernel("vadd").set_args(a=ba, b=ba, c=bc)
                q.enqueue_nd_range(kern, 64, 32)
                got, _ = q.enqueue_read_buffer(bc)
                assert np.allclose(got, A + A), d.name

    def test_profiling_event_phases(self):
        ctx = cl.create_context_for("GTX480")
        q = cl.CommandQueue(ctx)
        b = cl.Buffer.create(ctx, 64)
        prog = cl.Program(ctx, [_vadd(OPENCL)]).build()
        kern = prog.kernel("vadd").set_args(a=b, b=b, c=b)
        ev = q.enqueue_nd_range(kern, 64, 32)
        assert ev.queued_s <= ev.submit_s <= ev.start_s <= ev.end_s
        assert ev.launch_latency_seconds > 0
        assert ev.kernel_seconds > 0

    def test_bad_workgroup_divisibility(self):
        ctx = cl.create_context_for("GTX480")
        q = cl.CommandQueue(ctx)
        prog = cl.Program(ctx, [_vadd(OPENCL)]).build()
        kern = prog.kernel("vadd")
        with pytest.raises(cl.CLError, match="WORK_GROUP"):
            q.enqueue_nd_range(kern, 65, 32)

    def test_unbuilt_program_rejected(self):
        ctx = cl.create_context_for("GTX480")
        prog = cl.Program(ctx, [_vadd(OPENCL)])
        with pytest.raises(cl.CLError, match="EXECUTABLE"):
            prog.kernel("vadd")

    def test_unknown_kernel_name(self):
        ctx = cl.create_context_for("GTX480")
        prog = cl.Program(ctx, [_vadd(OPENCL)]).build()
        with pytest.raises(cl.CLError, match="KERNEL_NAME"):
            prog.kernel("nope")

    def test_cuda_dialect_rejected_by_build(self):
        ctx = cl.create_context_for("GTX480")
        with pytest.raises(cl.CLError, match="BUILD"):
            cl.Program(ctx, [_vadd(CUDA)]).build()

    def test_source_factory_receives_defines(self):
        seen = {}

        def factory(defines):
            seen.update(defines)
            return [_vadd(OPENCL)]

        ctx = cl.create_context_for("HD5870")
        cl.Program(ctx, factory).build({"WARP_SIZE": 64})
        assert seen == {"WARP_SIZE": 64}

    def test_warp_size_query(self):
        assert cl.create_context_for("HD5870").device.warp_size == 64
        assert cl.create_context_for("GTX280").device.warp_size == 32

    def test_out_of_resources_on_cell(self):
        # 8 KB of local memory exceeds the Cell's 2 KB local store
        k = KernelBuilder("big", OPENCL)
        o = k.buffer("o", Scalar.F32)
        sh = k.shared("sh", Scalar.F32, 2048)
        k.store(sh, k.tid.x, 0.0)
        k.barrier()
        k.store(o, k.tid.x, sh[k.tid.x])
        ctx = cl.create_context_for("Cell/BE")
        q = cl.CommandQueue(ctx)
        b = cl.Buffer.create(ctx, 64)
        prog = cl.Program(ctx, [k.finish()]).build()
        kern = prog.kernel("big").set_args(o=b)
        with pytest.raises(cl.CLError, match="OUT_OF_RESOURCES"):
            q.enqueue_nd_range(kern, 64, 64)


class TestLaunchOverheads:
    def test_opencl_slower_and_size_dependent(self):
        assert opencl_launch_overhead_s(0) > cuda_launch_overhead_s(0)
        small = opencl_launch_overhead_s(1024)
        large = opencl_launch_overhead_s(1 << 20)
        assert large > small  # "the gap size depends on the problem size"

    def test_cuda_size_dependence_mild(self):
        growth_cuda = cuda_launch_overhead_s(1 << 20) - cuda_launch_overhead_s(0)
        growth_ocl = opencl_launch_overhead_s(1 << 20) - opencl_launch_overhead_s(0)
        assert growth_ocl > growth_cuda


class TestLaunchAccounting:
    """Where each runtime counts a launch the device refuses to admit.

    CUDA counts a launch once the device has admitted it.  OpenCL counts
    at enqueue, so a rejected Cell/BE enqueue still adds one launch and
    its overhead to ``runtime.opencl.*``; the ``repro.bench`` gate's
    ``launch.*`` values rest on that order.  Neither runtime's own launch
    count or virtual clock moves for a rejected launch.
    """

    def test_cuda_counts_only_admitted_launches(self):
        ctx = rt_cuda.CudaContext(GTX480)
        p = ctx.malloc(64)
        fn = ctx.compile(_vadd(CUDA))
        now = ctx.now
        with metrics.use_registry() as reg:
            with pytest.raises(rt_cuda.CudaError) as info:
                fn.launch(1, 2048, a=p, b=p, c=p)  # over 1024 threads/block
            assert info.value.code == "CL_OUT_OF_RESOURCES"
            assert not [n for n in reg.names() if n.startswith("runtime.cuda.")]
            assert (ctx.launch_count, ctx.now) == (0, now)
            fn.launch(2, 32, a=p, b=p, c=p)
            assert reg.get("runtime.cuda.launches").value == 1
            assert reg.get("runtime.cuda.launch_overhead_s").value == (
                cuda_launch_overhead_s(64)
            )
            assert ctx.launch_count == 1

    def test_opencl_counts_a_rejected_enqueue(self):
        ctx = cl.create_context_for("Cell/BE")
        q = cl.CommandQueue(ctx)
        b = cl.Buffer.create(ctx, 512)
        kern = cl.Program(ctx, [_vadd(OPENCL)]).build().kernel("vadd")
        kern.set_args(a=b, b=b, c=b)
        with metrics.use_registry() as reg:
            with pytest.raises(cl.CLError, match="OUT_OF_RESOURCES"):
                q.enqueue_nd_range(kern, 512, 512)  # over 256 items/group
            assert reg.get("runtime.opencl.launches").value == 1
            assert reg.get("runtime.opencl.launch_overhead_s").value == (
                opencl_launch_overhead_s(512)
            )
            assert reg.get("runtime.opencl.overhead_s").count == 1
            assert (q.launch_count, q.now) == (0, 0.0)
            q.enqueue_nd_range(kern, 512, 256)
            assert reg.get("runtime.opencl.launches").value == 2
            assert q.launch_count == 1
