"""Sweep lifecycle: one run per sweep CLI, exit codes, drain, ABT preflight.

Every sweep CLI (``repro.experiments``, ``repro.benchsuite``,
``repro.experiments.paperdoc``) takes its flags from
:func:`add_sweep_arguments` and runs its units inside a
:class:`SweepRun`, which owns the tracer, the cache, ``--resume`` and
the journal, the executor, the drain, the manifest and the exit code::

    with SweepRun(args, "repro.experiments", argv) as run:
        ...                          # run units on run.executor
        run.failures, run.stranded = n_failed, drain_left_work
    return run.exit_code

* **Exit codes** — a sweep process ends in exactly one of three states,
  each with its own code so wrappers (CI, shell loops) can branch on
  ``$?`` alone: ``0`` clean, ``1`` real failures, ``75`` interrupted
  but resumable (75 is BSD ``EX_TEMPFAIL``: "try again later", which is
  literally the contract — rerun with ``--resume``).
  :func:`run_outcome` is the one mapping, the daemon's ``stop()``'s too.
* **Graceful shutdown** — :class:`GracefulShutdown` installs
  SIGINT/SIGTERM handlers that *drain* instead of dying: the engine
  stops admitting work, in-flight units get a bounded grace period, and
  when the drain left work undone the journal records ``interrupted``
  and the process exits 75 (a drain that stranded nothing ends like a
  clean run, as the daemon's ``stop()`` does).  A second signal skips
  the grace period and stops hard.
* **ABT preflight** — :func:`preflight_unit` predicts, without
  launching, whether a unit will abort at enqueue for lack of device
  resources (Table VI's "ABT" rows).  It compiles the unit's kernels
  with :func:`repro.runtime.overhead.compile_for`, then asks
  :func:`repro.sim.device.admission_error` — the same
  pure function the simulator's launch path calls — so a verdict agrees
  with the eventual launch outcome by construction, not by a parallel
  reimplementation of the rules.  Sweeps do not call it: a swept
  unit's own launch decides its ABT row.  The variants gate uses it to
  skip rewrites a device cannot admit.

:func:`select_units` is the benchmark selection ``repro.benchsuite``
and ``repro.serve submit`` share.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import signal
import sys
from typing import Optional

from .. import telemetry
from ..arch.specs import ALL_DEVICES
from ..benchsuite.registry import REAL_WORLD, REGISTRY, SYNTHETIC
from ..errors import ABORT_CODES, FailureKind
from ..runtime.overhead import compile_for
from ..sim.device import admission_error
from ..telemetry import log, metrics
from ..telemetry import spans as tspans
from . import journal as journal_mod
from .cache import default_cache_dir
from .engine import SweepExecutor
from .unit import WorkUnit, make_unit, unit_build

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FAILED",
    "EXIT_INTERRUPTED",
    "GracefulShutdown",
    "PreflightVerdict",
    "preflight_unit",
    "run_outcome",
    "add_sweep_arguments",
    "add_selection_arguments",
    "select_units",
    "SweepRun",
]

EXIT_CLEAN = 0
EXIT_FAILED = 1
#: BSD EX_TEMPFAIL — interrupted mid-sweep, rerun with ``--resume``
EXIT_INTERRUPTED = 75


def run_outcome(interrupted: bool, failures: int) -> tuple:
    """Map a finished sweep onto its journal state and process exit code."""
    if interrupted:
        return "interrupted", EXIT_INTERRUPTED
    if failures:
        return "failed", EXIT_FAILED
    return "complete", EXIT_CLEAN


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into an engine drain.

    First signal: stop admission (``executor.request_drain(grace)``),
    let in-flight units finish inside the grace period, fall through to
    normal end-of-run reporting with ``interrupted=True``.  Second
    signal: restore the previous handler and raise ``KeyboardInterrupt``
    so the process stops hard (the journal's ``lease`` records make even
    that crash resumable).
    """

    def __init__(self, executor=None, grace: float = 30.0):
        self.executor = executor
        self.grace = grace
        self.interrupted = False
        self.signum: Optional[int] = None
        self._prev: dict = {}

    def _handler(self, signum, frame) -> None:
        if self.interrupted:  # second signal: hard stop
            prev = self._prev.get(signum, signal.SIG_DFL)
            try:
                signal.signal(signum, prev)
            except (ValueError, TypeError):
                pass
            raise KeyboardInterrupt(f"second signal ({signum}): hard stop")
        self.interrupted = True
        self.signum = signum
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        metrics.counter("lifecycle.signals").inc()
        log.warn(
            "lifecycle.drain",
            f"{name} received: draining (grace {self.grace:g}s); "
            "signal again to stop hard",
        )
        if self.executor is not None:
            self.executor.request_drain(self.grace)

    def __enter__(self) -> "GracefulShutdown":
        for s in (signal.SIGINT, signal.SIGTERM):
            try:
                self._prev[s] = signal.signal(s, self._handler)
            except ValueError:  # not the main thread (tests): run unguarded
                pass
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for s, prev in self._prev.items():
            try:
                signal.signal(s, prev)
            except (ValueError, TypeError):
                pass


@dataclasses.dataclass
class PreflightVerdict:
    """What the guard predicts for one unit, before any launch."""

    label: str
    would_abt: bool
    #: the driver code admission control would reject with, when any
    code: Optional[str] = None
    #: first kernel that trips the limit
    kernel: Optional[str] = None
    threads: int = 0
    registers: int = 0
    shared_bytes: int = 0
    #: diagnostics: "cuda-unsupported", "inconclusive: ...", or ""
    note: str = ""

    @property
    def kind(self) -> str:
        """Table VI taxonomy row this verdict maps onto."""
        return FailureKind.ABT.value if self.would_abt else ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def preflight_unit(unit: WorkUnit, spec=None) -> PreflightVerdict:
    """Predict whether ``unit`` would abort at enqueue (Table VI "ABT").

    Compiles each of the unit's kernels through the runtimes' one build
    path, :func:`repro.runtime.overhead.compile_for` (same front end,
    same register budget), and feeds the compiled resource usage to the
    simulator's own ``admission_error``, so the verdict is the one the
    unit's launch would reach.
    """
    spec = spec if spec is not None else unit.spec
    label = unit.label()
    if unit.api == "cuda" and not spec.supports_cuda():
        # the unit fails at context creation, not at enqueue: not ABT
        return PreflightVerdict(label, False, note="cuda-unsupported")
    try:
        bench, dialect, params, opts, defines = unit_build(unit, spec)
        for k in bench.build_kernels(dialect, opts, defines, params):
            ptx = compile_for(unit.api, k, spec)
            # block shape: admission only depends on the thread product,
            # and every host launches with product == wg_hint
            code = admission_error(spec, ptx.resources, (k.wg_hint, 1, 1))
            if code is not None:
                metrics.counter("exec.preflight.abt").inc()
                return PreflightVerdict(
                    label,
                    would_abt=code in ABORT_CODES,
                    code=code,
                    kernel=k.name,
                    threads=k.wg_hint,
                    registers=ptx.resources.registers,
                    shared_bytes=ptx.resources.shared_bytes,
                )
        return PreflightVerdict(label, False)
    except Exception as e:  # kernel construction can legitimately fail
        return PreflightVerdict(
            label, False, note=f"inconclusive: {type(e).__name__}: {e}"
        )


def add_sweep_arguments(
    ap: argparse.ArgumentParser, report: bool = True, lifecycle: bool = True
) -> None:
    """Attach the flags a :class:`SweepRun` reads.

    The engine flags and the telemetry flags always; ``--sweep-report``
    / ``--sweep-json`` when ``report``; ``--resume`` / ``--grace`` when
    ``lifecycle``.
    """
    ap.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan cold work units out over N worker processes",
    )
    ap.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    ap.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    ap.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="cut any single work unit off after SEC wall-clock seconds",
    )
    ap.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry a unit up to N times on transient failures (default 2)",
    )
    if report:
        ap.add_argument(
            "--sweep-report", action="store_true",
            help="print the per-unit timing + cache hit/miss table (stderr)",
        )
        ap.add_argument(
            "--sweep-json", default=None, metavar="FILE",
            help="write the sweep summary (per-unit timings, hit/miss) as JSON",
        )
    telemetry.add_telemetry_arguments(ap)
    if not lifecycle:
        return
    g = ap.add_argument_group("lifecycle")
    g.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="RUN_ID",
        help="resume an interrupted run from its journal: a run id, or "
        "bare --resume for the latest resumable journal in the cache dir",
    )
    g.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help="drain budget after SIGINT/SIGTERM: in-flight units get this "
        "long to finish before the run stops (default 30)",
    )


def add_selection_arguments(ap: argparse.ArgumentParser, verb: str) -> None:
    """Attach the benchmark selection; ``verb`` is what ``--all`` does."""
    ap.add_argument("names", nargs="*", help=f"benchmarks: {', '.join(REGISTRY)}")
    ap.add_argument("--all", action="store_true", help=f"{verb} every benchmark")
    ap.add_argument("--device", default="GTX480", choices=sorted(ALL_DEVICES))
    ap.add_argument("--api", default="both", choices=["cuda", "opencl", "both"])
    ap.add_argument("--size", default="default", choices=["small", "default"])


def select_units(ap: argparse.ArgumentParser, args, doing: str) -> list:
    """The canonical units a selection names, one per (benchmark, api).

    A device that cannot run CUDA narrows the APIs to OpenCL, with a
    note on stdout (``doing`` names what the command does with them).
    """
    names = (SYNTHETIC + REAL_WORLD) if args.all else args.names
    if not names:
        ap.error("give benchmark names or --all")
    spec = ALL_DEVICES[args.device]
    apis = ["cuda", "opencl"] if args.api == "both" else [args.api]
    if "cuda" in apis and not spec.supports_cuda():
        print(f"note: {spec.name} is not CUDA-capable; {doing} OpenCL only")
        apis = ["opencl"]
    return [make_unit(n, a, spec, args.size) for n in names for a in apis]


class SweepRun:
    """One sweep CLI run, from parsed flags to its process exit code.

    What it does follows the flags :func:`add_sweep_arguments`
    registered.  Entering opens the tracer (and log verbosity),
    resolves the result cache, builds the :class:`SweepExecutor` and
    installs it and the tracer; with the lifecycle flags it also opens
    the run journal (resolving ``--resume``) and drains on
    SIGINT/SIGTERM.  The body runs its units on :attr:`executor` and
    sets :attr:`failures` and :attr:`stranded` (a drain left work
    undone).  A clean exit reports the sweep (with the report flags),
    sets :attr:`exit_code` by :func:`run_outcome`, closes the journal,
    prints the resume hint of an interrupted run and writes the trace
    and manifest.  An exception leaves the journal open for
    ``--resume``, as a crash would.
    """

    failures = 0
    stranded = False
    exit_code: Optional[int] = None
    journal = replay = None

    def __init__(self, args, command: str, argv=None):
        self.args, self.command, self.argv = args, command, argv
        self.lifecycle = hasattr(args, "resume")

    def __enter__(self) -> "SweepRun":
        from . import use_executor  # the package imports this module first

        args = self.args
        self.tracer = telemetry.start_run(args, self.command)
        self.cache_dir = (
            None if args.no_cache else (args.cache_dir or default_cache_dir())
        )
        if self.lifecycle:
            self._open_journal()
        grace = getattr(args, "grace", 30.0)
        self.executor = SweepExecutor(
            jobs=args.jobs, cache=self.cache_dir, timeout=args.timeout,
            retries=args.retries, progress=telemetry.progress_mode(args),
            journal=self.journal, resumed=self.replay, grace=grace,
        )
        if self.replay is not None:
            # the previous run died; sweep its orphaned tmp files
            self.executor.cache.purge_tmp()
        self._stack = contextlib.ExitStack()
        self._stack.enter_context(use_executor(self.executor))
        self._stack.enter_context(tspans.use_tracer(self.tracer))
        if self.lifecycle:
            self._stack.enter_context(GracefulShutdown(self.executor, grace))
        return self

    def _open_journal(self) -> None:
        """Resolve ``--resume`` and open the journal (none without a cache)."""
        token = self.args.resume
        if self.cache_dir is None:
            if token:
                raise SystemExit(
                    "--resume needs the result cache (drop --no-cache): "
                    "completed units are served from it, not re-simulated"
                )
            return
        if token:
            self.replay = journal_mod.open_resume(self.cache_dir, token)
        self.journal = journal_mod.RunJournal.create(
            self.cache_dir, self.tracer.trace_id, command=self.command,
            argv=self.argv,
            resumed_from=None if self.replay is None else self.replay.run_id,
        )

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._stack:  # then uninstall the drain, tracer and executor
            if exc_type is not None:
                return
            if hasattr(self.args, "sweep_json"):
                self._report()
        state, self.exit_code = run_outcome(self.stranded, self.failures)
        if self.journal is not None:
            self.journal.close(state)
        if self.stranded:
            self.tracer.abandon("interrupted")
            print(
                f"run interrupted; resume with: --resume {self.tracer.trace_id}",
                file=sys.stderr,
            )
        telemetry.finish_run(
            self.args, self.tracer, self.command, executor=self.executor,
            cache_dir=self.cache_dir,
            lifecycle=self.lifecycle_summary(state) if self.lifecycle else None,
        )

    def lifecycle_summary(self, state: str) -> dict:
        """The manifest's ``lifecycle`` block for this finished run."""
        j, rep = self.journal, self.replay
        return {
            "state": state, "exit_code": self.exit_code,
            "journal": None if j is None else str(j.path),
            "resumed_from": None if rep is None else rep.run_id,
            "resumed_hits": self.executor.stats.resumed_hits,
        }

    def _report(self) -> None:
        """Log the sweep's accounting, and report it as the flags ask."""
        from ..prof.report import render_failures, render_sweep

        st = self.executor.stats
        if st.records:
            log.info(
                "sweep.summary",
                f"sweep: {len(st.records)} unit requests, {st.hits} cache "
                f"hits, {st.misses} simulated ({st.sim_seconds:.1f}s simulation)",
            )
        if st.failures:
            injected = sum(1 for f in st.failures if f.injected)
            log.warn(
                "sweep.failures",
                f"sweep: {len(st.failures)} unit(s) failed terminally "
                f"({injected} injected)",
            )
            print(render_failures(st), file=sys.stderr)
        if self.args.sweep_report and st.records:
            print(render_sweep(st), file=sys.stderr)
        if self.args.sweep_json:
            with open(self.args.sweep_json, "w") as f:
                json.dump(st.summary(), f, indent=2)
