"""The benchmark suite's host side against its per-row loop oracles.

Input generators must stay byte-identical (their Generator draws are
the input contract every device and API shares), the MD and DXTC
references bit-identical, and SPMV's within float32 summation error.
The last test shows the reference checks still reject a kernel that
gets one output element wrong.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX480
from repro.benchsuite import data, get_benchmark, host_for
from repro.benchsuite.apps.dxtc import dxtc_reference
from repro.benchsuite.apps.md import md_reference
from repro.benchsuite.apps.spmv import spmv_reference

from . import oracles


def assert_same_bytes(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# -- generators at the sizes and seeds the benchmarks run -------------------

@pytest.mark.parametrize("size", ["small", "default"])
def test_neighbor_lists_match_oracle_at_md_sizes(size):
    p = get_benchmark("MD").sizes()[size]
    # seed 4 is what MD.host_run passes
    assert_same_bytes(
        data.neighbor_lists(p["n"], p["maxn"], seed=4),
        oracles.neighbor_lists(p["n"], p["maxn"], seed=4),
    )


@pytest.mark.parametrize("size", ["small", "default"])
def test_banded_csr_matches_oracle_at_spmv_sizes(size):
    p = get_benchmark("SPMV").sizes()[size]
    # seed 1 is what SPMV.host_run passes
    args = (p["nrows"], p["band"], p["nnz"])
    assert_same_bytes(
        data.banded_csr(*args, seed=1), oracles.banded_csr(*args, seed=1)
    )


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), data_=st.data(), seed=st.integers(0, 2**16))
def test_neighbor_lists_match_oracle_incl_fill_up(k, data_, seed):
    # n <= 2k leaves some rows fewer than k in-window candidates, so the
    # fill-up draw runs; larger n covers the plain rows
    n = data_.draw(st.integers(1, 3 * k + 2))
    assert_same_bytes(
        data.neighbor_lists(n, k, seed=seed), oracles.neighbor_lists(n, k, seed=seed)
    )


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(1, 40),
    band=st.integers(0, 60),
    nnz=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_banded_csr_matches_oracle_incl_wide_band(nrows, band, nnz, seed):
    assert_same_bytes(
        data.banded_csr(nrows, band, nnz, seed=seed),
        oracles.banded_csr(nrows, band, nnz, seed=seed),
    )


# -- references ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 80),
    maxn=st.integers(1, 20),
    spacing=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    jitter=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_md_reference_bitwise_equals_oracle(n, maxn, spacing, jitter, seed):
    g = np.random.default_rng(seed)
    # distinct points of an integer grid: many pairs sit exactly on the
    # cutoff (r2 == 16) or a whole number of spacings inside it
    cells = g.choice(8**3, size=n, replace=False)
    pos = np.stack(np.unravel_index(cells, (8, 8, 8)), axis=1) * spacing
    if jitter:
        pos = pos + g.uniform(-0.2, 0.2, pos.shape)
    px, py, pz = (pos[:, a].astype(np.float32) for a in range(3))
    # any atoms but the atom itself (r2 == 0 has no defined force)
    offsets = g.integers(1, n, (n, maxn))
    neigh = ((np.arange(n)[:, None] + offsets) % n).astype(np.int32).reshape(-1)
    assert_same_bytes(
        md_reference(px, py, pz, neigh, maxn),
        oracles.md_reference(px, py, pz, neigh, maxn),
    )


#: two colours whose float32 luminances are equal wherever they sit in a
#: block, so which of them becomes an endpoint is up to the tie rule
LUM_TIE = ((8.0, 11.0, 15.0), (23.0, 2.0, 22.0))


@settings(max_examples=60, deadline=None)
@given(
    bw=st.integers(1, 6),
    bh=st.integers(1, 6),
    texels=st.sampled_from(["uniform", "levels", "lum_tie"]),
    flat_frac=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_dxtc_reference_bitwise_equals_oracle(bw, bh, texels, flat_frac, seed):
    g = np.random.default_rng(seed)
    w, h = 4 * bw, 4 * bh
    if texels == "uniform":
        chans = g.uniform(0, 255, (3, h, w))
    elif texels == "levels":
        # few distinct channel levels: texels equidistant from two
        # palette entries tie on distance
        chans = g.choice(np.array([0.0, 85.0, 170.0, 255.0]), size=(3, h, w))
    else:
        # with black the tied pair holds the brightest texels, with
        # white the darkest
        grey = g.choice([0.0, 255.0])
        colours = np.array(LUM_TIE + ((grey, grey, grey),))
        chans = colours[g.integers(0, len(colours), (h, w))].transpose(2, 0, 1)
    # some blocks one flat colour: both endpoints equal, all four
    # palette entries tie
    flat = g.random((bh, bw)) < flat_frac
    mask = np.kron(flat, np.ones((4, 4), dtype=bool))
    chans[:, mask] = g.choice([0.0, 128.0, 255.0], size=(3, 1))
    r, gg, b = (c.astype(np.float32) for c in chans)
    assert_same_bytes(
        dxtc_reference(r, gg, b, w, h), oracles.dxtc_reference(r, gg, b, w, h)
    )


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(1, 60),
    band=st.integers(0, 80),
    nnz=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_spmv_reference_close_to_oracle(nrows, band, nnz, seed):
    rowptr, cols, vals = data.banded_csr(nrows, band, nnz, seed=seed)
    x = np.random.default_rng(seed).uniform(-1, 1, nrows).astype(np.float32)
    got = spmv_reference(rowptr, cols, vals, x)
    want = oracles.spmv_reference(rowptr, cols, vals, x)
    assert got.dtype == np.float32 and got.shape == want.shape
    # each side is within (terms + 1) float32 roundings of the exact dot
    # product, relative to the sum of |products| (the standard bound for
    # a sum in any order), so they are within twice that of each other
    terms = np.diff(rowptr)
    mag = oracles.spmv_reference(rowptr, cols, np.abs(vals), np.abs(x))
    tol = 2 * (terms + 1) * np.finfo(np.float32).eps * mag.astype(np.float64)
    assert (np.abs(got.astype(np.float64) - want) <= tol).all()


# -- the checks still reject a wrong kernel --------------------------------

@pytest.mark.parametrize("api", ["cuda", "opencl"])
@pytest.mark.parametrize("name", ["MD", "SPMV", "DXTC"])
def test_one_wrong_output_element_fails_the_check(name, api):
    host = host_for(api, GTX480)
    read = host.read
    reads = []

    def read_one_wrong(buf, count):
        out = read(buf, count).copy()
        if not reads:  # the first output array the host reads back
            if out.dtype.kind == "f":
                out[0] += 1 + abs(out[0])
            else:
                out[0] ^= 1
        reads.append(count)
        return out

    host.read = read_one_wrong
    r = get_benchmark(name).run(host, size="small")
    assert reads, "the host never read a result back"
    assert not r.correct and r.failure == "FL"
