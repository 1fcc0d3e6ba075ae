"""The memoized input generators share read-only arrays between callers."""
import numpy as np
import pytest

from repro.benchsuite import data

CALLS = [
    (data.layered_graph, (6, 128), {"seed": 9}),
    (data.banded_csr, (512, 48, 8), {"seed": 1}),
    (data.neighbor_lists, (512, 12), {"seed": 4}),
]


def _arrays(out):
    return [a for a in (out if isinstance(out, tuple) else (out,))
            if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("fn,args,kw", CALLS, ids=lambda c: getattr(c, "__name__", ""))
def test_cached_call_is_read_only_and_equals_uncached(fn, args, kw):
    cached = fn(*args, **kw)
    assert fn(*args, **kw) is cached  # one generation per process
    fresh = fn.__wrapped__(*args, **kw)
    assert fresh is not cached
    got, want = _arrays(cached), _arrays(fresh)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and np.array_equal(a, b)
        with pytest.raises(ValueError):
            a[0] = 0
    if isinstance(cached, tuple):
        assert cached[len(got):] == fresh[len(want):]  # layered_graph's n
