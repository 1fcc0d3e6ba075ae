"""chrome://tracing exporter for launch profiles.

Emits the Trace Event Format (the JSON understood by chrome://tracing,
Perfetto, and Speedscope): one "complete" (``ph: "X"``) slice per
launch-overhead span and per kernel span on the device's virtual
timeline, plus counter (``ph: "C"``) tracks for DRAM traffic and
transactions-per-request.  Timestamps are the runtimes' virtual clock in
microseconds, so traces are exactly reproducible run to run.
"""
from __future__ import annotations

from typing import Iterable, Optional

from ..telemetry.export import US, trace_document, write_document
from .profile import LaunchProfile

__all__ = ["chrome_trace", "write_chrome_trace"]

#: (tid, row name) of the launch timeline
_ROWS = ((1, "kernels"), (2, "launch overhead"))


def chrome_trace(
    profiles: Iterable[LaunchProfile], process_name: str = "repro"
) -> dict:
    """Build the trace-event dict for a sequence of launch profiles."""
    events: list = []
    for i, p in enumerate(profiles):
        if p.launch_overhead_s > 0:
            events.append(
                {
                    "name": f"{p.api} launch",
                    "cat": "overhead",
                    "ph": "X",
                    "pid": 1,
                    "tid": 2,
                    "ts": p.queued_s * US,
                    "dur": p.launch_overhead_s * US,
                    "args": {"kernel": p.kernel},
                }
            )
        events.append(
            {
                "name": p.kernel,
                "cat": "kernel",
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": p.start_s * US,
                "dur": max(p.total_s, 1e-9) * US,
                "args": {
                    "device": p.device,
                    "api": p.api,
                    "grid": list(p.grid),
                    "block": list(p.block),
                    "bound": p.bound_term or p.bound,
                    "transactions_per_request": round(
                        p.transactions_per_request, 3
                    ),
                    "dram_bytes": p.dram_bytes,
                    "occupancy_warps": p.occupancy_warps,
                    "cache_hit_rates": {
                        k: round(v.hit_rate(), 4) for k, v in p.caches.items()
                    },
                    "launch_index": i,
                },
            }
        )
        events.append(
            {
                "name": "DRAM bytes",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": p.start_s * US,
                "args": {"bytes": p.dram_bytes},
            }
        )
        events.append(
            {
                "name": "transactions/request",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": p.start_s * US,
                "args": {"tpr": round(p.transactions_per_request, 3)},
            }
        )
    return trace_document(events, process_name, _ROWS)


def write_chrome_trace(
    profiles: Iterable[LaunchProfile],
    path: str,
    process_name: Optional[str] = None,
) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    doc = chrome_trace(profiles, process_name or "repro")
    return write_document(doc, path)
