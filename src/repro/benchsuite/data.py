"""Deterministic workload generators for the benchmark suite.

Every generator takes an explicit seed so benchmark runs are exactly
reproducible (the virtual-clock simulator is deterministic end to end).
The Generator calls, their arguments and their order are the input
contract: array work may be batched around the draws, never reorder them.

The three slow generators (``layered_graph``, ``banded_csr``,
``neighbor_lists``) are pure functions of their arguments, so each runs
once per process per argument set: a long-lived worker serving many
units reuses the arrays.  Their arrays come back read-only, so a
caller that wrote into a shared input would fail loudly instead of
corrupting the next unit's.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "rng",
    "gray_image",
    "layered_graph",
    "banded_csr",
    "clustered_positions",
    "neighbor_lists",
    "rgb_image",
]


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE + seed)


def _read_only(*arrays) -> tuple:
    """Freeze the arrays a memoized generator shares between its callers."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def gray_image(width: int, height: int, seed: int = 0) -> np.ndarray:
    """A grayscale f32 image with smooth structure + noise (Sobel/St2D)."""
    g = rng(seed)
    y, x = np.mgrid[0:height, 0:width].astype(np.float32)
    img = (
        np.sin(x * 0.21) * 40
        + np.cos(y * 0.13) * 40
        + g.normal(0, 6, (height, width))
    )
    return (img - img.min()).astype(np.float32)


def rgb_image(width: int, height: int, seed: int = 0) -> tuple:
    """Three f32 channel arrays in [0, 255] (DXTC input)."""
    g = rng(seed)
    chans = []
    for c in range(3):
        base = gray_image(width, height, seed=seed * 3 + c)
        chans.append((base / max(base.max(), 1e-6) * 255.0).astype(np.float32))
    return tuple(chans)


@functools.lru_cache(maxsize=16)
def layered_graph(
    levels: int, width: int, fan_out: int = 3, seed: int = 0
) -> tuple:
    """A layered DAG-ish graph in CSR form (BFS workload).

    ``levels`` layers of ``width`` nodes; each node points to ``fan_out``
    random nodes of the next layer (plus a few intra-layer edges).  BFS
    from node 0 visits one layer per iteration, so the *host-side* loop
    runs ``levels`` times — which is what makes BFS sensitive to kernel
    launch overhead (paper §IV-B.4).

    Returns ``(row_offsets s32[n+1], columns s32[m], n_nodes)``.
    """
    g = rng(seed)
    n = levels * width
    adj: list[list[int]] = [[] for _ in range(n)]
    for lv in range(levels - 1):
        base, nxt = lv * width, (lv + 1) * width
        for i in range(width):
            node = base + i
            outs = g.integers(0, width, fan_out)
            adj[node].extend(int(nxt + o) for o in outs)
            # one intra-layer edge for irregularity
            adj[node].append(int(base + ((i + 1) % width)))
    # make sure layer 0 is reachable from the source
    for i in range(1, width):
        adj[0].append(i)
    row = np.zeros(n + 1, dtype=np.int32)
    cols: list[int] = []
    for i, outs in enumerate(adj):
        uniq = sorted(set(outs) - {i})
        cols.extend(uniq)
        row[i + 1] = len(cols)
    return _read_only(row, np.asarray(cols, dtype=np.int32)) + (n,)


@functools.lru_cache(maxsize=16)
def banded_csr(
    nrows: int, band: int, nnz_per_row: int, seed: int = 0
) -> tuple:
    """A banded random sparse matrix in CSR (SPMV workload).

    Column indices stay within ``band`` of the diagonal, giving the
    gathered ``x`` vector the spatial locality a texture cache can catch
    (the paper's MD/SPMV texture result needs reuse to exist).
    Returns ``(rowptr s32[n+1], cols s32[m], vals f32[m])``.
    """
    g = rng(seed)
    cols, vals = [], []
    for r in range(nrows):
        lo = max(0, r - band)
        hi = min(nrows - 1, r + band)
        k = min(nnz_per_row, hi - lo + 1)
        # choice() draws from the population size alone, so an int
        # population gives the same draws as the arange it stands for
        cols.append(np.sort(lo + g.choice(hi - lo + 1, size=k, replace=False)))
        vals.append(g.normal(0, 1, k))
    rowptr = np.cumsum([0] + [c.size for c in cols]).astype(np.int32)
    return _read_only(
        rowptr,
        np.concatenate(cols).astype(np.int32),
        np.concatenate(vals).astype(np.float32),
    )


def clustered_positions(n: int, seed: int = 0) -> tuple:
    """Atom positions laid out cluster-by-cluster (MD workload).

    Spatially-sorted positions give neighbor gathers locality — again,
    what the texture cache exploits.
    Returns ``(px, py, pz)`` f32 arrays.
    """
    g = rng(seed)
    per = 8
    clusters = -(-n // per)
    centers = g.uniform(0, 20, (clusters, 3))
    pts = centers.repeat(per, axis=0)[:n] + g.normal(0, 0.4, (n, 3))
    pts = pts.astype(np.float32)
    return pts[:, 0].copy(), pts[:, 1].copy(), pts[:, 2].copy()


@functools.lru_cache(maxsize=16)
def neighbor_lists(n: int, k: int, seed: int = 0) -> np.ndarray:
    """k nearest-ish neighbors per atom, as an s32[n*k] index array."""
    g = rng(seed)
    idx = np.empty((n, k), dtype=np.int32)
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n, i + k + 1)
        cand = np.concatenate((np.arange(lo, i), np.arange(i + 1, hi)))
        if cand.size < k:
            cand = np.concatenate([cand, g.integers(0, n, k - cand.size)])
        idx[i] = g.choice(cand, size=k, replace=False)
    (flat,) = _read_only(idx.reshape(-1))
    return flat
