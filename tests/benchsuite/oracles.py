"""Per-row loop versions of the benchmark suite's host code.

These are the straightforward one-row-at-a-time formulations that the
vectorised generators in :mod:`repro.benchsuite.data` and the reference
checks in the MD, SPMV and DXTC apps must reproduce: the generators byte
for byte, the MD and DXTC references bit for bit, SPMV within the
float32 summation-order tolerance.  They stay as the reference the
numpy passes are tested against.
"""
import numpy as np

from repro.benchsuite.apps.dxtc import _LW, PIX
from repro.benchsuite.apps.md import LJ_CUTOFF_SQ
from repro.benchsuite.data import rng


def neighbor_lists(n, k, seed=0):
    g = rng(seed)
    idx = np.empty((n, k), dtype=np.int32)
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n, i + k + 1)
        cand = np.setdiff1d(np.arange(lo, hi), [i])
        if cand.size < k:
            cand = np.concatenate([cand, g.integers(0, n, k - cand.size)])
        idx[i] = g.choice(cand, size=k, replace=False)
    return idx.reshape(-1)


def banded_csr(nrows, band, nnz_per_row, seed=0):
    g = rng(seed)
    rowptr = np.zeros(nrows + 1, dtype=np.int32)
    cols = []
    vals = []
    for r in range(nrows):
        lo = max(0, r - band)
        hi = min(nrows - 1, r + band)
        k = min(nnz_per_row, hi - lo + 1)
        cs = np.sort(g.choice(np.arange(lo, hi + 1), size=k, replace=False))
        cols.extend(int(c) for c in cs)
        vals.extend(float(v) for v in g.normal(0, 1, k))
        rowptr[r + 1] = len(cols)
    return (
        rowptr,
        np.asarray(cols, dtype=np.int32),
        np.asarray(vals, dtype=np.float32),
    )


def md_reference(px, py, pz, neigh, maxn):
    n = px.size
    nl = neigh.reshape(n, maxn)
    out = np.zeros((3, n), dtype=np.float32)
    for i in range(n):
        dx = px[nl[i]] - px[i]
        dy = py[nl[i]] - py[i]
        dz = pz[nl[i]] - pz[i]
        r2 = dx * dx + dy * dy + dz * dz
        m = r2 < LJ_CUTOFF_SQ
        inv = np.where(m, 1.0 / np.where(m, r2, 1.0), 0.0).astype(np.float32)
        r6 = inv * inv * inv
        f = r6 * (r6 - np.float32(0.5)) * inv
        out[0, i] = np.sum(dx * f * m, dtype=np.float32)
        out[1, i] = np.sum(dy * f * m, dtype=np.float32)
        out[2, i] = np.sum(dz * f * m, dtype=np.float32)
    return out


def spmv_reference(rowptr, cols, vals, x):
    ref = np.zeros(rowptr.size - 1, dtype=np.float32)
    for r in range(ref.size):
        sl = slice(rowptr[r], rowptr[r + 1])
        ref[r] = np.dot(vals[sl], x[cols[sl]])
    return ref


def dxtc_reference(r, g, b, w, h):
    bw, bh = w // 4, h // 4
    n = bw * bh
    out_idx = np.zeros(n, dtype=np.uint32)
    out_ep = np.zeros(2 * n, dtype=np.uint32)
    lw = np.array(_LW, dtype=np.float32)
    for blk in range(n):
        bx, by = blk % bw, blk // bw
        pix = np.zeros((PIX, 3), dtype=np.float32)
        for p in range(PIX):
            px, py = bx * 4 + p % 4, by * 4 + p // 4
            pix[p] = (r[py, px], g[py, px], b[py, px])
        lum = pix @ lw
        # strict-< / strict-> scans, matching the kernel's update order
        imin = imax = 0
        lmin, lmax = np.float32(1e30), np.float32(-1e30)
        for p in range(PIX):
            if lum[p] < lmin:
                lmin, imin = lum[p], p
            if lum[p] > lmax:
                lmax, imax = lum[p], p
        c0, c1 = pix[imax], pix[imin]
        third = np.float32(1.0 / 3.0)
        pal = np.stack([c0, c1, (c0 * 2 + c1) * third, (c0 + c1 * 2) * third])
        indices = np.uint32(0)
        for p in range(PIX):
            d = ((pix[p] - pal) ** 2).sum(axis=1)
            best, bidx = np.float32(1e30), 0
            for ci in range(4):
                if d[ci] < best:
                    best, bidx = d[ci], ci
            indices |= np.uint32(bidx) << np.uint32(2 * p)
        out_idx[blk] = indices
        q = lambda c: np.uint32(int(c))
        out_ep[2 * blk] = (q(c0[0]) << 16) | (q(c0[1]) << 8) | q(c0[2])
        out_ep[2 * blk + 1] = (q(c1[0]) << 16) | (q(c1[1]) << 8) | q(c1[2])
    return out_idx, out_ep
