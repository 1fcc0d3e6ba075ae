"""Sweep lifecycle: exit codes, graceful shutdown, ABT preflight.

Three robustness pieces that wrap the engine rather than living in it:

* **Exit codes** — a sweep process ends in exactly one of three states,
  each with its own code so wrappers (CI, shell loops) can branch on
  ``$?`` alone: ``0`` clean, ``1`` real failures, ``75`` interrupted
  but resumable (75 is BSD ``EX_TEMPFAIL``: "try again later", which is
  literally the contract — rerun with ``--resume``).
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
  through the same front ends with the same
  :meth:`~repro.arch.specs.DeviceSpec.launch_reg_budget` the runtimes
  use, then asks :func:`repro.sim.device.admission_error` — the same
  pure function the simulator's launch path calls — so a verdict agrees
  with the eventual launch outcome by construction, not by a parallel
  reimplementation of the rules.  Sweeps do not call it: a swept
  unit's own launch decides its ABT row.  The variants gate uses it to
  skip rewrites a device cannot admit.
"""
from __future__ import annotations

import dataclasses
import signal
from typing import Optional

from ..compiler.clc import compile_opencl
from ..compiler.nvopencc import compile_cuda
from ..errors import ABORT_CODES, FailureKind
from ..sim.device import admission_error
from ..telemetry import log, metrics
from .unit import WorkUnit, unit_build

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FAILED",
    "EXIT_INTERRUPTED",
    "GracefulShutdown",
    "PreflightVerdict",
    "preflight_unit",
    "run_outcome",
    "add_lifecycle_arguments",
    "open_journal",
    "lifecycle_summary",
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
    so the process stops hard (the journal's ``start`` records make even
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

    Compiles each of the unit's kernels exactly as the host API would —
    same front end, same per-thread register budget from
    ``spec.launch_reg_budget(wg_hint)`` — and feeds the compiled
    resource usage to the simulator's own ``admission_error``, so the
    verdict is the one the unit's launch would reach.
    """
    spec = spec if spec is not None else unit.spec
    label = unit.label()
    if unit.api == "cuda" and not spec.supports_cuda():
        # the unit fails at context creation, not at enqueue: not ABT
        return PreflightVerdict(label, False, note="cuda-unsupported")
    try:
        bench, dialect, params, opts, defines = unit_build(unit, spec)
        compile_fn = compile_cuda if unit.api == "cuda" else compile_opencl
        for k in bench.build_kernels(dialect, opts, defines, params):
            ptx = compile_fn(k, max_regs=spec.launch_reg_budget(k.wg_hint))
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


def add_lifecycle_arguments(parser) -> None:
    """Attach the crash-safety flags shared by every sweep CLI."""
    g = parser.add_argument_group("lifecycle")
    g.add_argument(
        "--resume",
        nargs="?",
        const="auto",
        default=None,
        metavar="RUN_ID",
        help="resume an interrupted run from its journal: a run id, or "
        "bare --resume for the latest resumable journal in the cache dir",
    )
    g.add_argument(
        "--grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="drain budget after SIGINT/SIGTERM: in-flight units get this "
        "long to finish before the run stops (default 30)",
    )


def open_journal(args, cache_dir, run_id: str, command: str, argv=None):
    """Resolve ``--resume`` and open this run's journal.

    Returns ``(journal, replay)``; both None when the cache is disabled
    (no durable results means nothing worth journaling — and
    ``--resume`` without a cache is rejected outright, since the very
    results a resume would reuse were never kept).
    """
    from . import journal as journal_mod

    token = getattr(args, "resume", None)
    if cache_dir is None:
        if token:
            raise SystemExit(
                "--resume needs the result cache (drop --no-cache): "
                "completed units are served from it, not re-simulated"
            )
        return None, None
    replay = None
    if token:
        replay = journal_mod.open_resume(cache_dir, token)
    j = journal_mod.RunJournal.create(
        cache_dir, run_id, command=command, argv=argv,
        resumed_from=replay.run_id if replay is not None else None,
    )
    return j, replay


def lifecycle_summary(
    state: str, exit_code: int, journal=None, replay=None, executor=None
) -> dict:
    """The manifest's ``lifecycle`` block for one finished run."""
    out = {
        "state": state,
        "exit_code": exit_code,
        "journal": str(journal.path) if journal is not None else None,
        "resumed_from": replay.run_id if replay is not None else None,
    }
    if executor is not None:
        out["demoted"] = executor.stats.demoted
        out["resumed_hits"] = executor.stats.resumed_hits
    return out
