"""repro.exec — the sweep execution engine.

Decomposes experiments into independent :class:`WorkUnit`\\ s (one per
benchmark x device x API x config), fans them out over warm forked
workers (:mod:`repro.exec.dispatch`, the core the daemon shares), and
memoizes each unit's result in a content-addressed cache keyed by
the full :class:`DeviceSpec`, the resolved launch configuration, the
package version and the model's source (see DESIGN.md §"Sweep execution
engine").

A process-wide *active executor* lets the experiment harness, the
benchsuite CLI, ``core.comparison.compare`` and the test suite share
one memo table without threading an executor object through every call:

    from repro import exec as rexec

    with rexec.use_executor(rexec.SweepExecutor(jobs=4, cache=".repro-cache")):
        run_experiment("fig3")          # every unit goes through the engine
"""
from __future__ import annotations

import contextlib
from typing import Mapping, Optional

from .cache import (
    SCHEMA_VERSION,
    ResultCache,
    canonical_payload,
    canonical_results_json,
    default_cache_dir,
    result_from_json,
    result_to_json,
    validate_payload,
)
from .engine import FailedUnit, SweepExecutor, SweepStats, UnitRecord
from .journal import JournalReplay, RunJournal, journal_dir, latest_resumable
from .lifecycle import (
    EXIT_CLEAN,
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    GracefulShutdown,
    PreflightVerdict,
    preflight_unit,
    run_outcome,
)
from .unit import (
    UnitResult,
    WorkUnit,
    execute,
    make_unit,
    unit_build,
    unit_digest,
    unit_fingerprint,
)
from .variants import (
    VariantCheck,
    check_unit_variants,
    render_checks,
    variant_manifest,
    variants_for_unit,
    with_variant,
)

__all__ = [
    "WorkUnit",
    "UnitResult",
    "make_unit",
    "unit_build",
    "unit_digest",
    "unit_fingerprint",
    "execute",
    "ResultCache",
    "default_cache_dir",
    "result_to_json",
    "result_from_json",
    "canonical_payload",
    "canonical_results_json",
    "validate_payload",
    "SCHEMA_VERSION",
    "SweepExecutor",
    "SweepStats",
    "UnitRecord",
    "FailedUnit",
    "RunJournal",
    "JournalReplay",
    "journal_dir",
    "latest_resumable",
    "EXIT_CLEAN",
    "EXIT_FAILED",
    "EXIT_INTERRUPTED",
    "GracefulShutdown",
    "PreflightVerdict",
    "preflight_unit",
    "run_outcome",
    "active",
    "use_executor",
    "run_unit",
    "run_benchmark",
    "VariantCheck",
    "check_unit_variants",
    "render_checks",
    "variant_manifest",
    "variants_for_unit",
    "with_variant",
]

#: the process-wide executor every sweep-aware call site routes through;
#: created lazily so importing repro.exec has no side effects
_ACTIVE: Optional[SweepExecutor] = None


def active() -> SweepExecutor:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = SweepExecutor()
    return _ACTIVE


@contextlib.contextmanager
def use_executor(executor: SweepExecutor):
    """Install ``executor`` as the active one for the dynamic extent."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = executor
    try:
        yield executor
    finally:
        _ACTIVE = prev


def run_unit(unit: WorkUnit) -> UnitResult:
    """Serve one work unit through the active executor."""
    return active().run_unit(unit)


def run_benchmark(
    benchmark: str,
    api: str,
    device,
    size: str = "default",
    options: Optional[Mapping] = None,
):
    """Serve one benchmark run through the active executor.

    Returns the :class:`~repro.benchsuite.base.BenchResult` (cached or
    freshly simulated).
    """
    return run_unit(make_unit(benchmark, api, device, size, options)).bench
