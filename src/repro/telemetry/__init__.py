"""repro.telemetry — the run-level observability layer.

Four cooperating pieces (see DESIGN.md §"Telemetry"):

* :mod:`~repro.telemetry.spans` — hierarchical span tracing
  (``sweep -> unit -> attempt -> launch``) with cross-process
  propagation over the engine's ok/err payload protocol;
* :mod:`~repro.telemetry.metrics` — a process-wide registry of
  counters, gauges, and fixed-bucket histograms whose merge is
  deterministic whatever the execution order;
* :mod:`~repro.telemetry.log` — single-line structured diagnostics
  (the replacement for bare ``print`` under ``--jobs N``);
* :mod:`~repro.telemetry.manifest` — :class:`RunManifest`, the
  diffable end-of-run provenance record;

plus :mod:`~repro.telemetry.progress` (TTY-gated live sweep meter) and
:mod:`~repro.telemetry.export` (merged chrome-trace writer).

The whole layer is pay-for-what-you-use: with no tracer installed,
spans are no-ops; metric bumps are a dict hit and a float add.
"""
from __future__ import annotations

from . import log
from .cli import add_telemetry_arguments, finish_run, progress_mode, start_run
from .export import chrome_trace, write_trace
from .manifest import RunManifest, default_manifest_path, git_sha
from .metrics import (
    FSYNC_BUCKETS_S,
    OVERHEAD_BUCKETS_S,
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
    use_registry,
)
from .progress import ProgressLine
from .spans import (
    Instant,
    Span,
    Tracer,
    current_span_id,
    event,
    span,
    traced,
    tracer,
    use_tracer,
    worker_tracer,
)

__all__ = [
    "log",
    "add_telemetry_arguments",
    "start_run",
    "finish_run",
    "progress_mode",
    "Span",
    "Instant",
    "Tracer",
    "tracer",
    "use_tracer",
    "span",
    "event",
    "traced",
    "current_span_id",
    "worker_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS_S",
    "OVERHEAD_BUCKETS_S",
    "FSYNC_BUCKETS_S",
    "registry",
    "use_registry",
    "counter",
    "gauge",
    "histogram",
    "RunManifest",
    "git_sha",
    "default_manifest_path",
    "ProgressLine",
    "chrome_trace",
    "write_trace",
]
