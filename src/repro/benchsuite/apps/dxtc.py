"""DXTC — high-quality DXT1 texture compression (NVIDIA SDK, Table II).

One thread compresses one 4x4 pixel block: the 16 texels are staged
through shared memory (the SDK stages and votes through shared memory
too, and that staging footprint — 12 KB per work-group — is what makes
DXTC exceed the Cell/BE's local store and abort, Table VI).  Endpoints
are the extreme-luminance colors; each texel is matched to the nearest
of the 4 palette interpolants and packed as 2-bit indices.
"""
from __future__ import annotations

import numpy as np

from ...kir import KernelBuilder, Scalar
from ..base import Benchmark, BenchResult, HostAPI, Metric
from ..data import rgb_image

__all__ = ["DXTC"]

WG = 64
PIX = 16  # texels per 4x4 block

_LW = (0.299, 0.587, 0.114)


def _kernel(dialect):
    k = KernelBuilder("dxt1_compress", dialect, wg_hint=WG)
    r = k.buffer("r", Scalar.F32)
    g = k.buffer("g", Scalar.F32)
    b = k.buffer("b", Scalar.F32)
    out_idx = k.buffer("out_idx", Scalar.U32)
    out_ep = k.buffer("out_ep", Scalar.U32)
    w = k.scalar("w", Scalar.S32)  # image width in pixels (multiple of 4)
    nblocks = k.scalar("nblocks", Scalar.S32)
    # staging: 16 texels x 3 channels per thread
    sr = k.shared("sr", Scalar.F32, WG * PIX)
    sg = k.shared("sg", Scalar.F32, WG * PIX)
    sb = k.shared("sb", Scalar.F32, WG * PIX)
    t = k.let("t", k.tid.x, Scalar.S32)
    blk = k.let("blk", k.global_id(0), Scalar.S32)
    bw = k.let("bw", w / 4)  # blocks per row
    with k.if_(blk < nblocks):
        bx = k.let("bx", blk % bw)
        by = k.let("by", blk / bw)
        for p in range(PIX):  # unrolled at source, as the SDK does
            px = bx * 4 + (p % 4)
            py = by * 4 + (p // 4)
            k.store(sr, t * PIX + p, r[py * w + px])
            k.store(sg, t * PIX + p, g[py * w + px])
            k.store(sb, t * PIX + p, b[py * w + px])
    k.barrier()
    with k.if_(blk < nblocks):
        # find extreme-luminance texels
        lmin = k.let("lmin", 1e30, Scalar.F32)
        lmax = k.let("lmax", -1e30, Scalar.F32)
        iminv = k.let("iminv", 0, Scalar.S32)
        imaxv = k.let("imaxv", 0, Scalar.S32)
        for p in range(PIX):
            lum = k.let(
                f"lum{p}",
                _LW[0] * sr[t * PIX + p]
                + _LW[1] * sg[t * PIX + p]
                + _LW[2] * sb[t * PIX + p],
                Scalar.F32,
            )
            with k.if_(lum < lmin):
                k.assign(lmin, lum)
                k.assign(iminv, p)
            with k.if_(lum > lmax):
                k.assign(lmax, lum)
                k.assign(imaxv, p)
        # endpoint colors
        c0r = k.let("c0r", sr[t * PIX + imaxv])
        c0g = k.let("c0g", sg[t * PIX + imaxv])
        c0b = k.let("c0b", sb[t * PIX + imaxv])
        c1r = k.let("c1r", sr[t * PIX + iminv])
        c1g = k.let("c1g", sg[t * PIX + iminv])
        c1b = k.let("c1b", sb[t * PIX + iminv])
        third = 1.0 / 3.0
        pal = []
        pal.append((c0r, c0g, c0b))
        pal.append((c1r, c1g, c1b))
        pal.append(
            (
                k.let("p2r", (c0r * 2.0 + c1r) * third),
                k.let("p2g", (c0g * 2.0 + c1g) * third),
                k.let("p2b", (c0b * 2.0 + c1b) * third),
            )
        )
        pal.append(
            (
                k.let("p3r", (c0r + c1r * 2.0) * third),
                k.let("p3g", (c0g + c1g * 2.0) * third),
                k.let("p3b", (c0b + c1b * 2.0) * third),
            )
        )
        indices = k.let("indices", k.const(0, Scalar.U32), Scalar.U32)
        for p in range(PIX):
            best = k.let(f"best{p}", 1e30, Scalar.F32)
            bidx = k.let(f"bidx{p}", k.const(0, Scalar.U32), Scalar.U32)
            for ci, (pr, pg, pb) in enumerate(pal):
                dr = sr[t * PIX + p] - pr
                dg = sg[t * PIX + p] - pg
                db = sb[t * PIX + p] - pb
                dist = k.let(f"d{p}_{ci}", dr * dr + dg * dg + db * db)
                with k.if_(dist < best):
                    k.assign(best, dist)
                    k.assign(bidx, ci)
            k.assign(indices, indices | (bidx << (2 * p)))
        k.store(out_idx, blk, indices)
        # endpoints quantized to 8-bit channels, packed 0x00RRGGBB each
        ep0 = k.let(
            "ep0",
            (k.f2u(c0r) << 16) | (k.f2u(c0g) << 8) | k.f2u(c0b),
            Scalar.U32,
        )
        ep1 = k.let(
            "ep1",
            (k.f2u(c1r) << 16) | (k.f2u(c1g) << 8) | k.f2u(c1b),
            Scalar.U32,
        )
        k.store(out_ep, blk * 2, ep0)
        k.store(out_ep, blk * 2 + 1, ep1)
    return k.finish()


def dxtc_reference(r, g, b, w, h):
    bw, bh = w // 4, h // 4
    # (blocks, texels, channels), texel p of a block at (p % 4, p // 4)
    pix = np.stack(
        [c.reshape(bh, 4, bw, 4).swapaxes(1, 2).reshape(-1, PIX) for c in (r, g, b)],
        axis=-1,
    )
    lum = pix @ np.array(_LW, dtype=np.float32)
    # argmin/argmax keep the first extreme, as the kernel's strict
    # < / > scans do; likewise for the nearest palette entry below
    rows = np.arange(len(pix))
    c0, c1 = pix[rows, lum.argmax(axis=1)], pix[rows, lum.argmin(axis=1)]
    third = np.float32(1.0 / 3.0)
    pal = np.stack([c0, c1, (c0 * 2 + c1) * third, (c0 + c1 * 2) * third], axis=1)
    d = ((pix[:, :, None, :] - pal[:, None, :, :]) ** 2).sum(axis=-1)
    bidx = d.argmin(axis=-1).astype(np.uint32)
    shifts = np.arange(0, 2 * PIX, 2, dtype=np.uint32)
    out_idx = np.bitwise_or.reduce(bidx << shifts, axis=1)
    # endpoints quantized to 8-bit channels, packed 0x00RRGGBB each
    ends = np.stack([c0, c1], axis=1).astype(np.uint32)
    out_ep = np.bitwise_or.reduce(ends << np.uint32([16, 8, 0]), axis=-1)
    return out_idx, out_ep.reshape(-1)


class DXTC(Benchmark):
    name = "DXTC"
    metric = Metric("MPixels/sec")

    def kernels(self, dialect, options, defines, params):
        return [_kernel(dialect)]

    def sizes(self):
        return {
            "small": {"w": 32, "h": 32},
            "default": {"w": 96, "h": 96},
        }

    def host_run(self, api: HostAPI, params, options) -> BenchResult:
        w, h = params["w"], params["h"]
        r, g, b = rgb_image(w, h, seed=6)
        nblocks = (w // 4) * (h // 4)
        d_r = api.alloc(w * h)
        d_g = api.alloc(w * h)
        d_b = api.alloc(w * h)
        d_idx = api.alloc(nblocks, Scalar.U32)
        d_ep = api.alloc(2 * nblocks, Scalar.U32)
        api.write(d_r, r)
        api.write(d_g, g)
        api.write(d_b, b)
        secs = api.launch(
            "dxt1_compress",
            nblocks,
            WG,
            r=d_r,
            g=d_g,
            b=d_b,
            out_idx=d_idx,
            out_ep=d_ep,
            w=w,
            nblocks=nblocks,
        )
        gi = api.read(d_idx, nblocks)
        ge = api.read(d_ep, 2 * nblocks)
        ri, re = dxtc_reference(r, g, b, w, h)
        ok = np.array_equal(gi, ri) and np.array_equal(ge, re)
        mpix = w * h / secs / 1e6
        return self.result(api, mpix, secs, ok, detail={"blocks": nblocks})
