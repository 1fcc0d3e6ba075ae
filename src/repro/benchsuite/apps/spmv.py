"""SPMV — sparse matrix-vector multiply, CSR scalar kernel (SHOC).

One thread per row; the gathered ``x`` vector is the irregular read-only
stream that the CUDA version binds to **texture memory** (SHOC does
exactly this) while the OpenCL version reads plain global memory — the
programming-model difference of §IV-B.1 and the subject of Figs. 4/5.
``options["use_texture"]`` toggles the CUDA binding for the Fig. 4
ablation.  An optional warp-per-row variant exists for the Table VI
CPU observation (warp-oriented optimization collapsing on Intel920).
"""
from __future__ import annotations

import numpy as np

from ...kir import KernelBuilder, Scalar
from ..base import Benchmark, BenchResult, HostAPI, Metric
from ..data import banded_csr

__all__ = ["SPMV"]


def _scalar_kernel(dialect, use_texture: bool):
    k = KernelBuilder("spmv_csr", dialect, wg_hint=128)
    vals = k.buffer("vals", Scalar.F32)
    cols = k.buffer("cols", Scalar.S32)
    rowptr = k.buffer("rowptr", Scalar.S32)
    x = k.buffer("x", Scalar.F32)
    y = k.buffer("y", Scalar.F32)
    nrows = k.scalar("nrows", Scalar.S32)
    row = k.let("row", k.global_id(0), Scalar.S32)
    with k.if_(row < nrows):
        lo = k.let("lo", rowptr[row])
        hi = k.let("hi", rowptr[row + 1])
        acc = k.let("acc", 0.0, Scalar.F32)
        with k.for_("j", lo, hi) as j:
            col = k.let("colv", cols[j])
            xv = k.texload(x, col) if use_texture else x[col]
            k.assign(acc, acc + vals[j] * xv)
        k.store(y, row, acc)
    return k.finish()


def _warp_kernel(dialect, warp_size: int):
    """Warp-per-row variant (the §V CPU-collapse ablation).

    A warp cooperates on one row, reducing partials through shared
    memory — great on GPUs, pure overhead when a "warp" is 4 SSE lanes.
    """
    wg = 128
    k = KernelBuilder("spmv_csr_warp", dialect, wg_hint=wg)
    vals = k.buffer("vals", Scalar.F32)
    cols = k.buffer("cols", Scalar.S32)
    rowptr = k.buffer("rowptr", Scalar.S32)
    x = k.buffer("x", Scalar.F32)
    y = k.buffer("y", Scalar.F32)
    nrows = k.scalar("nrows", Scalar.S32)
    part = k.shared("part", Scalar.F32, wg)
    t = k.let("t", k.tid.x, Scalar.S32)
    lane = k.let("lane", t % warp_size)
    wid = k.let("wid", k.global_id(0) // warp_size, Scalar.S32)
    k.store(part, t, 0.0)
    with k.if_(wid < nrows):
        lo = k.let("lo", rowptr[wid])
        hi = k.let("hi", rowptr[wid + 1])
        acc = k.let("acc", 0.0, Scalar.F32)
        j = k.let("j", lo + lane)
        with k.while_(j < hi):
            k.assign(acc, acc + vals[j] * x[cols[j]])
            k.assign(j, j + warp_size)
        k.store(part, t, acc)
    k.barrier()
    # log2 tree over the warp's slice
    step = warp_size // 2
    while step >= 1:
        with k.if_((lane < step).logical_and(wid < nrows)):
            k.store(part, t, part[t] + part[t + step])
        k.barrier()
        step //= 2
    with k.if_(lane.eq(0).logical_and(wid < nrows)):
        k.store(y, wid, part[t])
    return k.finish()


def spmv_reference(rowptr, cols, vals, x):
    # reduceat gives an empty row its next element instead of 0; valid
    # because banded_csr gives every row at least one nonzero
    return np.add.reduceat(vals * x[cols], rowptr[:-1])


class SPMV(Benchmark):
    name = "SPMV"
    metric = Metric("GFlops/sec")
    #: texture is a CUDA-only facility; SHOC's CUDA SPMV binds x to it
    default_options = {
        "use_texture": {"cuda": True, "opencl": False},
        "variant": "scalar",  # or "warp"
        "wg": 128,
    }

    def kernels(self, dialect, options, defines, params):
        if options["variant"] == "warp":
            return [_warp_kernel(dialect, defines.get("WARP_SIZE", 32))]
        use_tex = options["use_texture"] and dialect.allows_texture
        return [_scalar_kernel(dialect, use_tex)]

    def sizes(self):
        return {
            "small": {"nrows": 512, "band": 48, "nnz": 8},
            "default": {"nrows": 8192, "band": 384, "nnz": 12},
        }

    def host_run(self, api: HostAPI, params, options) -> BenchResult:
        nrows, band, nnz = params["nrows"], params["band"], params["nnz"]
        rowptr, cols, vals = banded_csr(nrows, band, nnz, seed=1)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, nrows).astype(np.float32)
        d_vals = api.alloc(len(vals))
        d_cols = api.alloc(len(cols), Scalar.S32)
        d_rp = api.alloc(len(rowptr), Scalar.S32)
        d_x = api.alloc(nrows)
        d_y = api.alloc(nrows)
        for d, hbuf in (
            (d_vals, vals),
            (d_cols, cols),
            (d_rp, rowptr),
            (d_x, x),
        ):
            api.write(d, hbuf)
        wg = options["wg"]
        if options["variant"] == "warp":
            threads = nrows * api.spec.warp_width
            secs = api.launch(
                "spmv_csr_warp",
                threads,
                wg,
                vals=d_vals,
                cols=d_cols,
                rowptr=d_rp,
                x=d_x,
                y=d_y,
                nrows=nrows,
            )
        else:
            secs = api.launch(
                "spmv_csr",
                nrows,
                wg,
                vals=d_vals,
                cols=d_cols,
                rowptr=d_rp,
                x=d_x,
                y=d_y,
                nrows=nrows,
            )
        got = api.read(d_y, nrows)
        ref = spmv_reference(rowptr, cols, vals, x)
        ok = np.allclose(got, ref, rtol=1e-3, atol=1e-4)
        gflops = 2 * len(vals) / secs / 1e9
        return self.result(
            api, gflops, secs, ok, detail={"nnz": len(vals), "variant": options["variant"]}
        )
