"""Compile-cache contract: every hit is a private copy of the first compile."""
import pytest

from repro.compiler import ccache, compile_cuda
from repro.kir import CUDA, KernelBuilder, Scalar


def _saxpy():
    k = KernelBuilder("saxpy", CUDA)
    a = k.buffer("a", Scalar.F32)
    o = k.buffer("o", Scalar.F32)
    i = k.let("i", k.global_id(0), Scalar.S32)
    k.store(o, i, a[i] * 2.0)
    return k.finish()


@pytest.fixture
def cold_cache():
    ccache.clear()
    yield
    ccache.clear()


def test_mutating_a_hit_leaves_later_hits_intact(cold_cache):
    fresh = compile_cuda(_saxpy())
    ccache.clear()
    first = compile_cuda(_saxpy())  # a miss: fills the cache
    hit = compile_cuda(_saxpy())
    assert hit == fresh and hit is not first
    hit.defines["WARP_SIZE"] = 7
    hit.params.clear()
    hit.instrs[0].label = "clobbered"
    hit.instrs.pop()
    hit.producer = "clobbered"
    again = compile_cuda(_saxpy())
    assert again == fresh
    assert again.instrs[0] is not hit.instrs[0]
    assert first == fresh


def test_content_digest_survives_a_hit(cold_cache):
    miss = compile_cuda(_saxpy())
    hit = compile_cuda(_saxpy())
    assert hit is not miss
    # the memo rides along in the entry: no recomputation on a hit
    assert hit.__dict__["_content_digest"] == miss.content_digest()
    del hit.__dict__["_content_digest"]
    assert hit.content_digest() == miss.content_digest()
