"""Lowering: kernel IR -> virtual-ISA instructions, style-directed.

One engine serves both front ends; every behavioural difference is a
:class:`~repro.compiler.style.CodegenStyle` knob.  See ``style.py`` for
why the knobs are set the way they are.
"""
from __future__ import annotations

import itertools
from typing import Optional, Union

from ..kir.expr import (
    BinOp,
    BufferRef,
    Const,
    Expr,
    Load,
    Select,
    SpecialReg,
    UnOp,
    Var,
)
from ..kir.stmt import (
    Assign,
    Barrier,
    For,
    If,
    Kernel,
    Let,
    ScalarParam,
    Store,
    While,
)
from ..kir.types import AddrSpace, Scalar, is_float, is_integer, sizeof
from ..ptx.instructions import Imm, Instr, Reg, RegAllocator
from ..ptx.isa import Op
from ..ptx.module import PTXKernel, PTXParam, ResourceUsage
from .style import CodegenStyle

__all__ = ["lower_kernel"]

_CMP_OPS = {"lt", "le", "gt", "ge", "eq", "ne"}

_BIN_TO_OP = {
    "add": Op.ADD,
    "sub": Op.SUB,
    "mul": Op.MUL,
    "div": Op.DIV,
    "rem": Op.REM,
    "min": Op.MIN,
    "max": Op.MAX,
    "and": Op.AND,
    "or": Op.OR,
    "xor": Op.XOR,
    "shl": Op.SHL,
    "shr": Op.SHR,
}

_UN_TO_OP = {
    "neg": Op.NEG,
    "not": Op.NOT,
    "abs": Op.ABS,
    "sqrt": Op.SQRT,
    "rsqrt": Op.RSQRT,
    "sin": Op.SIN,
    "cos": Op.COS,
    "floor": Op.FLOOR,
}

_LOG2E = 1.4426950408889634
_LN2 = 0.6931471805599453


def _is_pow2(v) -> bool:
    try:
        iv = int(v)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return False
    return iv > 0 and (iv & (iv - 1)) == 0


def _key_vars(key) -> frozenset:
    """All variable names mentioned anywhere in an expression key."""
    out: set = set()
    stack = [key]
    while stack:
        k = stack.pop()
        if isinstance(k, tuple):
            if len(k) == 2 and k[0] == "var" and isinstance(k[1], str):
                out.add(k[1])
            else:
                stack.extend(k)
    return frozenset(out)


def _assigned_names(body) -> set[str]:
    """Variable names mutated anywhere under ``body`` (incl. loop vars)."""
    from ..kir.visit import walk_stmts

    names: set[str] = set()
    for s in walk_stmts(body):
        if isinstance(s, (Let, Assign)):
            names.add(s.var.name)
        elif isinstance(s, For):
            names.add(s.var.name)
    return names


def _is_pure(e: Expr) -> bool:
    if isinstance(e, Load):
        return False
    if isinstance(e, BinOp):
        return _is_pure(e.a) and _is_pure(e.b)
    if isinstance(e, UnOp):
        return _is_pure(e.a)
    if isinstance(e, Select):
        return _is_pure(e.pred) and _is_pure(e.a) and _is_pure(e.b)
    return True


class Lowerer:
    def __init__(self, kernel: Kernel, style: CodegenStyle):
        self.kernel = kernel
        self.style = style
        self.ra = RegAllocator()
        self.instrs: list[Instr] = []
        self.env: dict[str, Reg] = {}
        self.sreg_cache: dict[str, Reg] = {}
        self.param_cache: dict[str, Reg] = {}
        self.memo: dict = {}
        #: key -> frozenset of mentioned variable names (pure function
        #: of the key, so entries never go stale)
        self._memo_kv: dict = {}
        #: variable name -> memo keys mentioning it, so an assignment
        #: drops exactly its dependents instead of rescanning the memo.
        #: A superset of the live keys: removed keys linger until their
        #: variable is next invalidated, and each is dropped once.
        self._var_keys: dict[str, set] = {}
        self.cur_pred: Optional[tuple] = None
        self._labels = itertools.count()
        # shared-memory layout
        self.shared_offsets: dict[str, int] = {}
        off = 0
        for b in kernel.shared:
            size = sizeof(b.elem)
            off = (off + size - 1) // size * size
            self.shared_offsets[b.name] = off
            off += (b.length or 0) * size
        self.shared_bytes = off

    # ------------------------------------------------------------------
    def emit(self, instr: Instr) -> Instr:
        if self.cur_pred is not None and instr.pred is None:
            instr.pred = self.cur_pred
        self.instrs.append(instr)
        return instr

    def new_label(self, prefix: str) -> str:
        return f"{prefix}_{next(self._labels)}"

    def label(self, name: str) -> None:
        self.instrs.append(Instr(Op.LABEL, label=name))

    # -- leaf reads -----------------------------------------------------
    def sreg(self, name: str) -> Reg:
        r = self.sreg_cache.get(name)
        if r is None:
            r = self.ra.new(Scalar.U32)
            self.emit(Instr(Op.MOV, Scalar.U32, dst=r, sreg=name))
            self.sreg_cache[name] = r
        return r

    def param_reg(self, name: str, dtype: Scalar) -> Reg:
        r = self.param_cache.get(name)
        if r is None:
            r = self.ra.new(dtype)
            self.emit(
                Instr(Op.LD, dtype, dst=r, space=AddrSpace.PARAM, param=name)
            )
            self.param_cache[name] = r
        return r

    # -- expression lowering ---------------------------------------------
    def eval(self, e: Expr, into: Optional[Reg] = None) -> Union[Reg, Imm]:
        """Lower ``e``; return the operand holding its value.

        When ``into`` is given, the value must end up in that register
        (used by the SSA-direct style to compute straight into a
        variable's home register).
        """
        val = self._eval(e, into)
        if into is not None and val is not into:
            self.emit(Instr(Op.MOV, into.dtype, dst=into, srcs=(val,)))
            return into
        return val

    def _memo_get(self, e: Expr):
        if not self.style.cse or not _is_pure(e):
            return None
        return self.memo.get(e.key())

    def _memo_put(self, e: Expr, reg: Reg) -> None:
        if self.style.cse and self.cur_pred is None and _is_pure(e):
            self._remember(e.key(), reg)

    def _remember(self, key, reg: Reg) -> None:
        self.memo[key] = reg
        for name in self._kv(key):
            keys = self._var_keys.get(name)
            if keys is None:
                keys = self._var_keys[name] = set()
            keys.add(key)

    def _kv(self, key) -> frozenset:
        vs = self._memo_kv.get(key)
        if vs is None:
            vs = self._memo_kv[key] = _key_vars(key)
        return vs

    def invalidate_var(self, name: str) -> None:
        keys = self._var_keys.pop(name, None)
        if keys:
            memo = self.memo
            for k in keys:
                memo.pop(k, None)

    def _eval(self, e: Expr, into: Optional[Reg]) -> Union[Reg, Imm]:
        if isinstance(e, Const):
            return Imm(e.value, e.ctype)
        if isinstance(e, Var):
            return self.env[e.name]
        if isinstance(e, SpecialReg):
            return self.sreg(e.reg.value)

        hit = self._memo_get(e)
        if hit is not None:
            return hit

        if isinstance(e, BinOp):
            out = self._eval_binop(e, into)
        elif isinstance(e, UnOp):
            out = self._eval_unop(e, into)
        elif isinstance(e, Select):
            p = self.as_operand(e.pred)
            a = self.as_operand(e.a)
            b = self.as_operand(e.b)
            out = into or self.ra.new(e.dtype)
            self.emit(Instr(Op.SELP, e.dtype, dst=out, srcs=(a, b, p)))
        elif isinstance(e, Load):
            out = self._eval_load(e, into)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"cannot lower {e!r}")

        if isinstance(out, Reg) and out is not into:
            self._memo_put(e, out)
        return out

    def as_operand(self, e: Expr) -> Union[Reg, Imm]:
        return self._eval(e, None)

    # mad/fma fusion candidates: add(mul(a,b), c) or add(c, mul(a,b))
    def _mad_parts(self, e: BinOp):
        if e.op != "add":
            return None
        if isinstance(e.a, BinOp) and e.a.op == "mul":
            return e.a.a, e.a.b, e.b
        if isinstance(e.b, BinOp) and e.b.op == "mul":
            return e.b.a, e.b.b, e.a
        return None

    def _eval_binop(self, e: BinOp, into: Optional[Reg]) -> Union[Reg, Imm]:
        dt = e.dtype
        if e.op in _CMP_OPS:
            a = self.as_operand(e.a)
            b = self.as_operand(e.b)
            out = into or self.ra.new(Scalar.PRED)
            self.emit(Instr(Op.SETP, e.a.dtype, dst=out, srcs=(a, b), cmp=e.op))
            return out
        if e.op in ("land", "lor"):
            a = self.as_operand(e.a)
            b = self.as_operand(e.b)
            out = into or self.ra.new(Scalar.PRED)
            op = Op.AND if e.op == "land" else Op.OR
            self.emit(Instr(op, Scalar.PRED, dst=out, srcs=(a, b)))
            return out

        # multiply-add fusion
        parts = self._mad_parts(e)
        if parts is not None:
            a, b, c = parts
            if is_integer(dt) and self.style.fuse_int_mad:
                out = into or self.ra.new(dt)
                self.emit(
                    Instr(
                        Op.MAD,
                        dt,
                        dst=out,
                        srcs=(
                            self.as_operand(a),
                            self.as_operand(b),
                            self.as_operand(c),
                        ),
                    )
                )
                return out
            if is_float(dt) and self.style.float_fuse:
                out = into or self.ra.new(dt)
                self.emit(
                    Instr(
                        Op.MAD if self.style.float_fuse == "mad" else Op.FMA,
                        dt,
                        dst=out,
                        srcs=(
                            self.as_operand(a),
                            self.as_operand(b),
                            self.as_operand(c),
                        ),
                    )
                )
                return out

        # float division by a constant -> multiply by the reciprocal
        # (NVOPENCC does this whenever CSE is on; CLC does not)
        if (
            self.style.cse
            and e.op == "div"
            and is_float(dt)
            and isinstance(e.b, Const)
            and float(e.b.value) != 0.0
        ):
            a = self.as_operand(e.a)
            out = into or self.ra.new(dt)
            self.emit(
                Instr(
                    Op.MUL,
                    dt,
                    dst=out,
                    srcs=(a, Imm(1.0 / float(e.b.value), dt)),
                )
            )
            return out

        # strength reduction of integer div/rem by powers of two
        if (
            self.style.strength_reduce
            and e.op in ("div", "rem")
            and is_integer(dt)
            and isinstance(e.b, Const)
            and _is_pow2(e.b.value)
        ):
            a = self.as_operand(e.a)
            out = into or self.ra.new(dt)
            if e.op == "div":
                sh = int(e.b.value).bit_length() - 1
                self.emit(
                    Instr(Op.SHR, dt, dst=out, srcs=(a, Imm(sh, Scalar.U32)))
                )
            else:
                self.emit(
                    Instr(
                        Op.AND,
                        dt,
                        dst=out,
                        srcs=(a, Imm(int(e.b.value) - 1, dt)),
                    )
                )
            return out

        a = self.as_operand(e.a)
        b = self.as_operand(e.b)
        out = into or self.ra.new(dt)
        self.emit(Instr(_BIN_TO_OP[e.op], dt, dst=out, srcs=(a, b)))
        return out

    def _eval_unop(self, e: UnOp, into: Optional[Reg]) -> Union[Reg, Imm]:
        a = self.as_operand(e.a)
        out = into or self.ra.new(e.dtype)
        if e.op == "exp":
            # exp(x) = ex2(x * log2 e) — two instructions, like nvcc
            t = self.ra.new(e.dtype)
            self.emit(
                Instr(Op.MUL, e.dtype, dst=t, srcs=(a, Imm(_LOG2E, e.dtype)))
            )
            self.emit(Instr(Op.EX2, e.dtype, dst=out, srcs=(t,)))
            return out
        if e.op == "log":
            t = self.ra.new(e.dtype)
            self.emit(Instr(Op.LG2, e.dtype, dst=t, srcs=(a,)))
            self.emit(
                Instr(Op.MUL, e.dtype, dst=out, srcs=(t, Imm(_LN2, e.dtype)))
            )
            return out
        if e.op in ("f2i", "i2f", "u2f", "f2u", "widen"):
            self.emit(Instr(Op.CVT, e.dtype, dst=out, srcs=(a,)))
            return out
        self.emit(Instr(_UN_TO_OP[e.op], e.dtype, dst=out, srcs=(a,)))
        return out

    # -- memory ---------------------------------------------------------
    def buffer_address(self, buf: BufferRef, index: Expr) -> Reg:
        """Byte address of ``buf[index]`` (style-directed arithmetic)."""
        memo_key = None
        if self.style.cse and _is_pure(index):
            memo_key = ("addr", buf.name, index.key())
            hit = self.memo.get(memo_key)
            if hit is not None:
                return hit
        size = sizeof(buf.elem)
        idx = self.as_operand(index)
        addr = self.ra.new(Scalar.U32)
        if buf.space is AddrSpace.SHARED:
            base: Union[Reg, Imm] = Imm(self.shared_offsets[buf.name], Scalar.U32)
        else:
            base = self.param_reg(buf.name, Scalar.U32)
        if self.style.addr_via_mad:
            self.emit(
                Instr(
                    Op.MAD,
                    Scalar.U32,
                    dst=addr,
                    srcs=(idx, Imm(size, Scalar.U32), base),
                )
            )
        else:
            sh = size.bit_length() - 1
            t = self.ra.new(Scalar.U32)
            self.emit(
                Instr(Op.SHL, Scalar.U32, dst=t, srcs=(idx, Imm(sh, Scalar.U32)))
            )
            self.emit(Instr(Op.ADD, Scalar.U32, dst=addr, srcs=(t, base)))
        if memo_key is not None and self.cur_pred is None:
            self._remember(memo_key, addr)
        return addr

    def _eval_load(self, e: Load, into: Optional[Reg]) -> Reg:
        out = into or self.ra.new(e.dtype)
        if e.via_texture:
            idx = self.as_operand(e.index)
            self.emit(
                Instr(
                    Op.TEX,
                    e.dtype,
                    dst=out,
                    srcs=(idx,),
                    space=AddrSpace.TEXTURE,
                    param=e.buf.name,
                )
            )
            return out
        addr = self.buffer_address(e.buf, e.index)
        self.emit(Instr(Op.LD, e.dtype, dst=out, srcs=(addr,), space=e.buf.space))
        return out

    # -- statements -------------------------------------------------------
    def define_var(self, var: Var) -> Reg:
        r = self.env.get(var.name)
        if r is None:
            r = self.ra.new(var.dtype)
            self.env[var.name] = r
        return r

    def assign_var(self, var: Var, value: Expr) -> None:
        home = self.define_var(var)
        if self.style.home_regs:
            tmp = self.as_operand(value)
            self.emit(Instr(Op.MOV, var.dtype, dst=home, srcs=(tmp,)))
        else:
            self.eval(value, into=home)
        self.invalidate_var(var.name)

    def invalidate_vars(self, names) -> None:
        for name in names:
            self.invalidate_var(name)

    def lower_block(self, body) -> None:
        """Lower a nested region with CSE-memo isolation.

        On exit the memo reverts to the entry snapshot *minus* entries
        depending on variables the region mutates: entries created inside
        may have been computed under a partial mask (or inside a loop) and
        entries depending on mutated variables are stale after the region.
        The kept entries stay in the reverse index: every variable the
        region invalidated is one it mutates.
        """
        assigned = _assigned_names(body)
        snapshot = dict(self.memo)
        for s in body:
            self.lower_stmt(s)
        self.memo = {
            k: v
            for k, v in snapshot.items()
            if not (self._kv(k) & assigned)
        }

    def lower_stmt(self, s) -> None:
        if isinstance(s, (Let, Assign)):
            self.assign_var(s.var, s.value)
        elif isinstance(s, Store):
            val = self.as_operand(s.value)
            addr = self.buffer_address(s.buf, s.index)
            self.emit(
                Instr(Op.ST, s.buf.elem, srcs=(addr, val), space=s.buf.space)
            )
        elif isinstance(s, Barrier):
            assert self.cur_pred is None, "barrier under predication"
            self.emit(Instr(Op.BAR))
        elif isinstance(s, If):
            self.lower_if(s)
        elif isinstance(s, For):
            self.lower_for(s)
        elif isinstance(s, While):
            self.lower_while(s)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"cannot lower {s!r}")

    # an if-body is predicable when it is a short run of simple statements
    def _predicable(self, body) -> bool:
        if not self.style.predicate_ifs:
            return False
        if len(body) > self.style.predicate_limit:
            return False
        return all(isinstance(x, (Let, Assign, Store)) for x in body)

    def lower_if(self, s: If) -> None:
        if not s.orelse and self._predicable(s.then) and self.cur_pred is None:
            p = self.as_operand(s.cond)
            self.cur_pred = (p, True)
            try:
                self.lower_block(s.then)
            finally:
                self.cur_pred = None
            return

        p = self.as_operand(s.cond)
        end = self.new_label("ENDIF")
        target = self.new_label("ELSE") if s.orelse else end
        self.emit(
            Instr(Op.BRA, pred=(p, False), target=target, reconv=end)
        )
        self.lower_block(s.then)
        if s.orelse:
            self.emit(Instr(Op.BRA, target=end))
            self.label(target)
            self.lower_block(s.orelse)
        self.label(end)

    def lower_for(self, s: For) -> None:
        var_reg = self.define_var(s.var)
        init = self.as_operand(s.start)
        self.emit(Instr(Op.MOV, s.var.dtype, dst=var_reg, srcs=(init,)))
        # everything the loop mutates must be recomputed inside it, so
        # pre-loop memo entries over those variables are unusable within
        self.invalidate_vars(_assigned_names(s.body) | {s.var.name})
        top = self.new_label("LOOP")
        end = self.new_label("LEND")
        self.label(top)
        stop = self.as_operand(s.stop)
        p = self.ra.new(Scalar.PRED)
        self.emit(Instr(Op.SETP, s.var.dtype, dst=p, srcs=(var_reg, stop), cmp="lt"))
        self.emit(Instr(Op.BRA, pred=(p, False), target=end, reconv=end))
        self.lower_block(s.body)
        step = self.as_operand(s.step)
        self.emit(Instr(Op.ADD, s.var.dtype, dst=var_reg, srcs=(var_reg, step)))
        self.invalidate_var(s.var.name)
        self.emit(Instr(Op.BRA, target=top))
        self.label(end)

    def lower_while(self, s: While) -> None:
        self.invalidate_vars(_assigned_names(s.body))
        top = self.new_label("WLOOP")
        end = self.new_label("WEND")
        self.label(top)
        p = self.as_operand(s.cond)
        self.emit(Instr(Op.BRA, pred=(p, False), target=end, reconv=end))
        self.lower_block(s.body)
        self.emit(Instr(Op.BRA, target=top))
        self.label(end)

    def _preload_bases_and_sregs(self) -> None:
        from ..kir.visit import stmt_exprs, walk_exprs, walk_stmts

        sregs: set[str] = set()
        bases: set[str] = set()
        for s in walk_stmts(self.kernel.body):
            tops = list(stmt_exprs(s))
            if isinstance(s, Store):
                bases.add(s.buf.name if s.buf.space is not AddrSpace.SHARED else "")
            for top in tops:
                for e in walk_exprs(top):
                    if isinstance(e, SpecialReg):
                        sregs.add(e.reg.value)
                    elif isinstance(e, Load):
                        if e.via_texture or e.buf.space is AddrSpace.SHARED:
                            continue
                        bases.add(e.buf.name)
        bases.discard("")
        for name in sorted(sregs):
            self.sreg(name)
        for name in sorted(bases):
            self.param_reg(name, Scalar.U32)

    # ------------------------------------------------------------------
    def run(self) -> PTXKernel:
        # Materialize every parameter and geometry register the kernel
        # touches at entry, under the full thread mask.  Lazy loads inside
        # divergent regions would cache values only valid for the lanes
        # active at first use.
        for p in self.kernel.scalars():
            self.env[p.name] = self.param_reg(p.name, p.dtype)
        self._preload_bases_and_sregs()
        self.lower_block(self.kernel.body)
        self.emit(Instr(Op.EXIT))

        params = []
        for p in self.kernel.params:
            if isinstance(p, ScalarParam):
                params.append(PTXParam(p.name, p.dtype, is_pointer=False))
            else:
                params.append(
                    PTXParam(p.name, p.elem, is_pointer=True, space=p.space)
                )
        out = PTXKernel(
            name=self.kernel.name,
            params=params,
            instrs=self.instrs,
            shared_decls={
                b.name: (b.elem, b.length, self.shared_offsets[b.name])
                for b in self.kernel.shared
            },
            producer=self.style.name,
            dialect=self.kernel.dialect,
        )
        out.resources = ResourceUsage(
            shared_bytes=self.shared_bytes,
            uses_texture=any(i.op is Op.TEX for i in self.instrs),
        )
        out.virtual_regs = out.max_reg_index() + 1
        return out


def lower_kernel(kernel: Kernel, style: CodegenStyle) -> PTXKernel:
    """Lower a (possibly pre-transformed) IR kernel to virtual ISA."""
    return Lowerer(kernel, style).run()
