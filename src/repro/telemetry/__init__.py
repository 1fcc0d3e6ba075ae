"""repro.telemetry — the run-level observability layer.

Four cooperating pieces (see DESIGN.md §"Telemetry"):

* :mod:`~repro.telemetry.spans` — hierarchical span tracing
  (``sweep -> unit -> attempt -> launch``) with cross-process
  propagation over the engine's ok/err payload protocol;
* :mod:`~repro.telemetry.metrics` — a process-wide registry of
  counters, gauges, and fixed-bucket histograms with exact sums, into
  which each unit attempt hands its own metrics in one locked merge;
* :mod:`~repro.telemetry.log` — single-line structured diagnostics
  (the replacement for bare ``print`` under ``--jobs N``);
* :mod:`~repro.telemetry.manifest` — :class:`RunManifest`, the
  diffable end-of-run provenance record;

plus :mod:`~repro.telemetry.progress` (TTY-gated live sweep meter) and
:mod:`~repro.telemetry.export` (merged chrome-trace writer).  Callers
import the submodule they use; the package itself exports only the
CLI wiring every repro CLI shares (:mod:`~repro.telemetry.cli`).

The whole layer is pay-for-what-you-use: with no tracer installed,
spans are no-ops; a metric bump is a dict hit and an integer add.
"""
from __future__ import annotations

from .cli import add_telemetry_arguments, finish_run, progress_mode, start_run

__all__ = ["add_telemetry_arguments", "finish_run", "progress_mode", "start_run"]
