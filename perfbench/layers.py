"""Per-layer tracing from outside the program.

The traced run wraps public functions of each program layer (compiler,
simulator, benchsuite, kir, exec, experiments, serve) in place, records
one span per call in memory, and restores every original afterwards.
Nothing under ``src/`` is edited.

Rules the wrappers follow:

* a function is patched in its defining module *and* in every loaded
  ``repro`` module that bound it by name (``from .interp import
  run_grid`` gives ``repro.sim.device`` its own reference); methods are
  patched on their class;
* spans live in memory; a forked child (pool worker, daemon worker)
  notices its new pid, drops what it inherited, and appends its spans
  to ``<spool>/<pid>.jsonl`` each time its outermost span closes, so
  nothing is lost when the worker leaves through ``os._exit``;
* a call nested inside a span of the same name is not recorded again,
  so inclusive totals never count a call twice;
* self time is a span's duration minus its direct children's.
"""
from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: span name -> the (module, qualified attribute) pairs it wraps
SPAN_TARGETS = {
    "compiler.compile": [
        ("repro.compiler.nvopencc", "compile_cuda"),
        ("repro.compiler.clc", "compile_opencl"),
    ],
    "compiler.lower": [("repro.compiler.lower", "lower_kernel")],
    "compiler.passes": [
        ("repro.compiler.passes.constfold", "fold_constants"),
        ("repro.compiler.passes.unroll", "unroll_loops"),
        ("repro.compiler.passes.dce", "eliminate_dead_code"),
    ],
    "compiler.ptxas": [("repro.compiler.ptxas", "assemble")],
    "sim.launch": [("repro.sim.device", "SimDevice.launch")],
    "sim.grid": [("repro.sim.interp", "run_grid")],
    "sim.memo_replay": [("repro.sim.memo", "LaunchMemo.replay")],
    "sim.memo_record": [("repro.sim.memo", "LaunchMemo.record")],
    "benchsuite.run": [("repro.benchsuite.base", "Benchmark.run")],
    "kir.build": [("repro.benchsuite.base", "Benchmark.build_kernels")],
    "kir.render": [("repro.kir.pretty", "render")],
    "exec.fingerprint": [("repro.exec.unit", "unit_digest")],
    "exec.cache_get": [("repro.exec.cache", "ResultCache.get")],
    "exec.cache_put": [("repro.exec.cache", "ResultCache.put")],
    "exec.journal_append": [("repro.exec.journal", "RunJournal.append")],
    "exec.preflight": [("repro.exec.lifecycle", "preflight_unit")],
    "exec.prewarm": [("repro.exec.engine", "SweepExecutor.prewarm")],
    "exec.execute": [("repro.exec.unit", "execute")],
    "experiments.render": [("repro.experiments.runner", "run_experiment")],
    "serve.submit": [("repro.serve.client", "ServeClient.submit")],
    "serve.wal_append": [("repro.serve.wal", "QueueWAL.append")],
}

#: every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    "compiler.compile_s": "s",
    "compiler.lower_s": "s",
    "compiler.passes_s": "s",
    "compiler.ptxas_s": "s",
    "compiler.compiles": "count",
    "compiler.ptx_instrs": "count",
    "compiler.ccache_hit_frac": "ratio",
    "sim.launch_s": "s",
    "sim.grid_s": "s",
    "sim.memo_replay_s": "s",
    "sim.memo_record_s": "s",
    "sim.launches": "count",
    "sim.memo_hit_frac": "ratio",
    "sim.warp_instructions": "count",
    "sim.dram_bytes": "bytes",
    "benchsuite.run_s": "s",
    "benchsuite.host_self_s": "s",
    "kir.build_s": "s",
    "kir.render_s": "s",
    "exec.fingerprint_s": "s",
    "exec.cache_get_s": "s",
    "exec.cache_hit_frac": "ratio",
    "experiments.render_s": "s",
    "exec.cache_put_s": "s",
    "exec.journal_append_s": "s",
    "exec.journal_records": "count",
    "exec.preflight_s": "s",
    "exec.execute_s": "s",
    "exec.dispatch_overhead_s": "s",
    "serve.submit_s": "s",
    "serve.wal_append_s": "s",
    "serve.wal_records": "count",
    "serve.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_frac": "ratio",
}

#: the harness's own span around one timed pass (a sweep or a ticket set)
PASS_SPAN = "bench.pass"
#: the harness's span around one daemon ticket, submit to complete
TICKET_SPAN = "bench.ticket"

#: attribute a wrapper carries, pointing at the function it wraps
_MARK = "__perfbench_original__"


class Recorder:
    """In-memory spans and counters of one process.

    A span is ``(pid, span_id, parent_id, name, t0, t1)``: span ids are
    per process, parent links per thread.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.on = False
        self.root_pid = os.getpid()
        self._reset(self.root_pid)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._local = threading.local()
        # daemon HTTP and dispatcher threads record concurrently: ids come
        # from an atomic counter, counter updates take the lock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        pid = os.getpid()
        if pid != self.pid:
            # a forked child: what it inherited belongs to the parent
            self._reset(pid)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str):
        stack = self._stack()
        if any(frame[1] == name for frame in stack):
            return None
        frame = (next(self._ids), name, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        if frame is None:
            return
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1][0] if stack else 0
        self.spans.append(
            (self.pid, frame[0], parent, frame[1], frame[2], t1)
        )
        if not stack and self.pid != self.root_pid:
            self.flush()

    def count(self, name: str, n: float = 1) -> None:
        self._stack()
        with self._lock:
            self.counts[name] += n

    def flush(self) -> None:
        """Append this child's spans and counts to its spool file."""
        if not self.spans and not self.counts:
            return
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(self.spool / f"{self.pid}.jsonl", "a") as f:
            f.write(line + "\n")
        self.spans = []
        self.counts = collections.Counter()

    def collect(self) -> tuple:
        """Take every span and counter: this process's plus the spooled ones."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], collections.Counter()
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # a child killed mid-write
                spans += [tuple(s) for s in rec["spans"]]
                counts.update(rec["counts"])
            path.unlink()
        return spans, counts

    def span(self, name: str):
        """A harness-side span, recorded only while tracing is on."""
        return _Span(self, name)


class _Span:
    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec, self.name, self.frame = rec, name, None

    def __enter__(self):
        if self.rec.on:
            self.frame = self.rec.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.exit(self.frame)


def _resolve(module: str, qualname: str):
    """``(owner, attr, original)`` for a module function or a method."""
    mod = importlib.import_module(module)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, qualname, getattr(mod, qualname)


def _hooks(rec: Recorder) -> dict:
    """Per-span hooks that read counters off a call's result."""

    def launch(out):
        rec.count("sim.launches")
        rec.count("sim.warp_instructions", out.stats.warp_instructions)
        rec.count("sim.dram_bytes", float(out.profile.dram_bytes))

    def cache_get(out):
        rec.count("exec.cache_gets")
        rec.count("exec.cache_hits", out is not None)

    return {
        "sim.launch": launch,
        "exec.cache_get": cache_get,
        "exec.journal_append": lambda out: rec.count("exec.journal_records"),
        "serve.wal_append": lambda out: rec.count("serve.wal_records"),
    }


def _span_wrapper(rec: Recorder, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        frame = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
            if hook is not None and frame is not None:
                hook(out)
        finally:
            rec.exit(frame)
        return out

    setattr(wrapper, _MARK, fn)
    return wrapper


def _ccache_wrapper(rec: Recorder, fn):
    """Counts lookups, and real compiles as calls of the miss callback."""

    @functools.wraps(fn)
    def wrapper(dialect, kernel, max_regs, compile_fn):
        if not rec.on:
            return fn(dialect, kernel, max_regs, compile_fn)

        def counted():
            ptx = compile_fn()
            rec.count("compiler.compiles")
            rec.count("compiler.ptx_instrs", len(ptx.instrs))
            return ptx

        rec.count("compiler.ccache_lookups")
        return fn(dialect, kernel, max_regs, counted)

    setattr(wrapper, _MARK, fn)
    return wrapper


def _memo_lookup_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if rec.on:
            rec.count("sim.memo_lookups")
            rec.count("sim.memo_hits", out is not None)
        return out

    setattr(wrapper, _MARK, fn)
    return wrapper


#: count-only wrappers (no span)
COUNT_TARGETS = [
    ("repro.compiler.ccache", "cached_compile", _ccache_wrapper),
    ("repro.sim.memo", "LaunchMemo.lookup", _memo_lookup_wrapper),
]


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patches:
    """Installs wrappers, with all their aliases, and removes them again."""

    def __init__(self) -> None:
        self._undo: list = []

    def wrap(self, module: str, qualname: str, make) -> None:
        owner, attr, orig = _resolve(module, qualname)
        new = make(orig)
        if isinstance(owner, type):
            setattr(owner, attr, new)
            self._undo.append((owner, attr, orig))
            return
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []
        # a module imported while patched bound a wrapper by name: unbind it
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                orig = getattr(value, _MARK, None) if callable(value) else None
                if orig is None:
                    continue
                while hasattr(orig, _MARK):
                    orig = getattr(orig, _MARK)
                setattr(mod, key, orig)


def leftover_wrappers() -> list:
    """Names of repro functions and methods still bound to a wrapper."""
    found = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if callable(value) and hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, meth in vars(value).items():
                    if callable(meth) and hasattr(meth, _MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


class Tracer:
    """Installs every layer wrapper around one recorder; a context manager.

    ``rec.on`` gates recording.  The harness installs the wrappers for
    traced passes only, so untraced passes run the program unpatched.
    """

    def __init__(self, spool: Path) -> None:
        self.rec = Recorder(spool)
        self.patches = Patches()

    def __enter__(self) -> "Tracer":
        hooks = _hooks(self.rec)
        try:
            for name, targets in SPAN_TARGETS.items():
                for module, qualname in targets:
                    self.patches.wrap(
                        module, qualname,
                        lambda fn, n=name: _span_wrapper(
                            self.rec, n, fn, hooks.get(n)
                        ),
                    )
            for module, qualname, factory in COUNT_TARGETS:
                self.patches.wrap(
                    module, qualname, lambda fn, f=factory: f(self.rec, fn)
                )
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.rec.on = False
        self.patches.restore()


def self_times(spans: list) -> dict:
    """Span key ``(pid, id)`` -> its duration minus its direct children's."""
    out = {(s[0], s[1]): s[5] - s[4] for s in spans}
    for s in spans:
        parent = (s[0], s[2])
        if s[2] and parent in out:
            out[parent] -= s[5] - s[4]
    return out


def layer_metrics(spans: list, counts: dict, passes: int, jobs: int) -> dict:
    """Per-layer figures per traced pass, from merged spans and counters.

    ``passes`` is how many traced passes the spans cover; ``jobs`` is the
    daemon's worker count, used by ``serve.overhead_s``.
    """
    total: dict = collections.defaultdict(float)
    children: dict = collections.defaultdict(list)
    for s in spans:
        total[s[3]] += s[5] - s[4]
        if s[2]:
            children[(s[0], s[2])].append(s)

    def kids_time(s, names) -> float:
        return sum(
            k[5] - k[4] for k in children.get((s[0], s[1]), ()) if k[3] in names
        )

    executes = [s for s in spans if s[3] == "exec.execute"]
    host_self = dispatch = 0.0
    for s in spans:
        dur = s[5] - s[4]
        if s[3] == "benchsuite.run":
            host_self += dur - kids_time(s, ("compiler.compile", "sim.launch"))
        elif s[3] == "exec.prewarm":
            # the workers are the processes that executed inside this
            # prewarm, however many the executor was configured for
            inside = [
                e for e in executes
                if e[0] != s[0] and s[4] <= e[4] and e[5] <= s[5]
            ]
            workers = len({e[0] for e in inside})
            if workers:
                # pool fan-out wall; the preflight before it is its own metric
                fanout = dur - kids_time(s, ("exec.preflight",))
                dispatch += workers * fanout - sum(e[5] - e[4] for e in inside)
    selfs = self_times(spans)
    unaccounted = sum(selfs[(s[0], s[1])] for s in spans if s[3] == PASS_SPAN)
    tickets = total[TICKET_SPAN]
    serve_overhead = jobs * tickets - total["exec.execute"] if tickets else 0.0

    sums = {
        "compiler.compile_s": total["compiler.compile"],
        "compiler.lower_s": total["compiler.lower"],
        "compiler.passes_s": total["compiler.passes"],
        "compiler.ptxas_s": total["compiler.ptxas"],
        "compiler.compiles": counts.get("compiler.compiles", 0),
        "compiler.ptx_instrs": counts.get("compiler.ptx_instrs", 0),
        "sim.launch_s": total["sim.launch"],
        "sim.grid_s": total["sim.grid"],
        "sim.memo_replay_s": total["sim.memo_replay"],
        "sim.memo_record_s": total["sim.memo_record"],
        "sim.launches": counts.get("sim.launches", 0),
        "sim.warp_instructions": counts.get("sim.warp_instructions", 0),
        "sim.dram_bytes": counts.get("sim.dram_bytes", 0.0),
        "benchsuite.run_s": total["benchsuite.run"],
        "benchsuite.host_self_s": host_self,
        "kir.build_s": total["kir.build"],
        "kir.render_s": total["kir.render"],
        "exec.fingerprint_s": total["exec.fingerprint"],
        "exec.cache_get_s": total["exec.cache_get"],
        "experiments.render_s": total["experiments.render"],
        "exec.cache_put_s": total["exec.cache_put"],
        "exec.journal_append_s": total["exec.journal_append"],
        "exec.journal_records": counts.get("exec.journal_records", 0),
        "exec.preflight_s": total["exec.preflight"],
        "exec.execute_s": total["exec.execute"],
        "exec.dispatch_overhead_s": dispatch,
        "serve.submit_s": total["serve.submit"],
        "serve.wal_append_s": total["serve.wal_append"],
        "serve.wal_records": counts.get("serve.wal_records", 0),
        "serve.overhead_s": serve_overhead,
        "trace.unaccounted_s": unaccounted,
    }
    out = {k: v / max(1, passes) for k, v in sums.items()}

    def frac(num: str, den: str) -> float:
        d = counts.get(den, 0)
        return counts.get(num, 0) / d if d else 0.0

    lookups = counts.get("compiler.ccache_lookups", 0)
    out["compiler.ccache_hit_frac"] = (
        (lookups - counts.get("compiler.compiles", 0)) / lookups
        if lookups else 0.0
    )
    out["sim.memo_hit_frac"] = frac("sim.memo_hits", "sim.memo_lookups")
    out["exec.cache_hit_frac"] = frac("exec.cache_hits", "exec.cache_gets")
    return out
