import numpy as np
import pytest

from repro.compiler.passes.constfold import fold_constants
from repro.compiler.passes.unroll import unroll_loops
from repro.kir import (
    Assign,
    Const,
    CUDA,
    For,
    If,
    KernelBuilder,
    Let,
    Scalar,
    Store,
    eval_kernel,
)


def _simple(unroll=None, trip=4):
    k = KernelBuilder("k", CUDA)
    o = k.buffer("o", Scalar.S32)
    acc = k.let("acc", 0)
    with k.for_("i", 0, trip, unroll=unroll) as i:
        k.assign(acc, acc + i)
    k.store(o, k.tid.x, acc)
    return k.finish()


class TestUnroll:
    def test_full_unroll_removes_loop(self):
        k = _simple(unroll=None)
        out, rep = unroll_loops(k, auto_limit=16)
        assert not any(isinstance(s, For) for s in out.body)
        assert rep.unrolled

    def test_no_auto_unroll_when_disabled(self):
        out, rep = unroll_loops(_simple(), auto_limit=0)
        assert any(isinstance(s, For) for s in out.body)
        assert not rep.unrolled

    def test_pragma_honored_even_without_auto(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", 0, 4, unroll=k.unroll()) as i:
            k.assign(acc, acc + i)
        k.store(o, k.tid.x, acc)
        out, rep = unroll_loops(k.finish(), auto_limit=0)
        assert not any(isinstance(s, For) for s in out.body)

    def test_partial_unroll_keeps_main_loop(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", 0, 12, unroll=k.unroll(4)) as i:
            k.assign(acc, acc + i)
        k.store(o, k.tid.x, acc)
        out, rep = unroll_loops(k.finish(), auto_limit=0)
        loops = [s for s in out.body if isinstance(s, For)]
        assert len(loops) == 1
        assert int(loops[0].step.value) == 4
        assert len(loops[0].body) == 4

    def test_partial_unroll_with_remainder(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", 0, 10, unroll=k.unroll(4)) as i:
            k.assign(acc, acc + i)
        k.store(o, k.tid.x, acc)
        out, _ = unroll_loops(k.finish(), auto_limit=0)
        # semantics preserved: run through the reference evaluator
        O = np.zeros(1, dtype=np.int32)
        eval_kernel(out, 1, 1, {"o": O})
        assert O[0] == sum(range(10))

    def test_unknown_trip_skipped_with_report(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        n = k.scalar("n", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", 0, n, unroll=k.unroll()) as i:
            k.assign(acc, acc + i)
        k.store(o, k.tid.x, acc)
        out, rep = unroll_loops(k.finish(), auto_limit=64)
        assert rep.skipped and "compile-time" in rep.skipped[0][1]

    def test_barrier_blocks_auto_unroll(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        sh = k.shared("sh", Scalar.S32, 4)
        with k.for_("i", 0, 4) as i:
            k.store(sh, k.tid.x, i)
            k.barrier()
        k.store(o, k.tid.x, sh[k.tid.x])
        out, rep = unroll_loops(k.finish(), auto_limit=64)
        assert any(isinstance(s, For) for s in out.body)

    def test_barrier_unrolls_under_pragma(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        sh = k.shared("sh", Scalar.S32, 4)
        with k.for_("i", 0, 4, unroll=k.unroll()) as i:
            k.store(sh, k.tid.x, i)
            k.barrier()
        k.store(o, k.tid.x, sh[k.tid.x])
        out, rep = unroll_loops(k.finish(), auto_limit=0)
        assert not any(isinstance(s, For) for s in out.body)

    def test_alpha_renaming_keeps_uses_consistent(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        with k.for_("i", 0, 3, unroll=k.unroll()) as i:
            tmp = k.let("tmp", i * 10)
            k.store(o, i, tmp + 1)
        out, _ = unroll_loops(k.finish(), auto_limit=0)
        O = np.zeros(3, dtype=np.int32)
        eval_kernel(out, 1, 1, {"o": O})
        assert O.tolist() == [1, 11, 21]

    def test_semantics_preserved_generic(self):
        base = _simple()
        out, _ = unroll_loops(base, auto_limit=16)
        O1 = np.zeros(2, dtype=np.int32)
        O2 = np.zeros(2, dtype=np.int32)
        eval_kernel(base, 1, 2, {"o": O1})
        eval_kernel(out, 1, 2, {"o": O2})
        assert (O1 == O2).all()


class TestConstFold:
    def test_literal_arith_folds(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        k.store(o, 0, k.const(2) + k.const(3) * k.const(4))
        out = fold_constants(k.finish())
        st = out.body[0]
        assert isinstance(st.value, Const) and st.value.value == 14

    def test_branch_pruning(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        with k.if_(k.const(1) < k.const(2)):
            k.store(o, 0, 1)
        out = fold_constants(k.finish(), prune_branches=True)
        assert isinstance(out.body[0], Store)

    def test_no_pruning_when_disabled(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        with k.if_(k.const(1) < k.const(2)):
            k.store(o, 0, 1)
        out = fold_constants(k.finish(), prune_branches=False)
        assert isinstance(out.body[0], If)

    def test_constant_propagation_through_assign_chain(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        l = k.let("l", 1)
        k.assign(l, l * 2)
        k.assign(l, l * 2)
        k.store(o, 0, l)
        out = fold_constants(k.finish(), prune_branches=True)
        st = [s for s in out.body if isinstance(s, Store)][0]
        assert isinstance(st.value, Const) and st.value.value == 4

    def test_propagation_killed_by_loop_assignment(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        n = k.scalar("n", Scalar.S32)
        l = k.let("l", 1)
        with k.for_("i", 0, n) as i:
            k.assign(l, l * 2)
        k.store(o, 0, l)
        out = fold_constants(k.finish(), prune_branches=True)
        st = [s for s in out.body if isinstance(s, Store)][0]
        assert not isinstance(st.value, Const)

    def test_propagation_killed_by_divergent_branch(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        l = k.let("l", 1)
        with k.if_(k.tid.x < 1):
            k.assign(l, 5)
        k.store(o, 0, l)
        out = fold_constants(k.finish(), prune_branches=True)
        st = [s for s in out.body if isinstance(s, Store)][0]
        assert not isinstance(st.value, Const)

    def test_algebraic_identities(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        t = k.let("t", k.tid.x, Scalar.S32)
        k.store(o, 0, t * 1 + 0)
        out = fold_constants(k.finish(), algebraic=True)
        st = [s for s in out.body if isinstance(s, Store)][0]
        assert st.value.key() == t.key()

    def test_zero_trip_loop_removed(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.S32)
        acc = k.let("acc", 0)
        with k.for_("i", 5, 5) as i:
            k.assign(acc, acc + 1)
        k.store(o, 0, acc)
        out = fold_constants(k.finish(), prune_branches=True)
        assert not any(isinstance(s, For) for s in out.body)

    def test_fold_preserves_semantics(self):
        k = KernelBuilder("k", CUDA)
        o = k.buffer("o", Scalar.F32)
        x = k.let("x", 2.0, Scalar.F32)
        k.assign(x, x * 3.0 + 1.0)
        with k.if_(k.const(True, Scalar.PRED)):
            k.assign(x, x - 0.5)
        k.store(o, k.tid.x, x)
        base = k.finish()
        folded = fold_constants(base, prune_branches=True)
        O1 = np.zeros(1, dtype=np.float32)
        O2 = np.zeros(1, dtype=np.float32)
        eval_kernel(base, 1, 1, {"o": O1})
        eval_kernel(folded, 1, 1, {"o": O2})
        assert np.allclose(O1, O2)

