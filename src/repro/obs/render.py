"""Text rendering for ``repro.obs ls`` / ``status`` / ``watch``.

All output here is plain ASCII in the house table style and — given a
pinned ``now`` (the ``--once`` path) — byte-deterministic: every
number derives from journal record timestamps, fixed-precision
formatting, and sorted iteration.  The live ``watch`` loop reuses the
same renderers and only adds screen-refresh chrome around them.
"""
from __future__ import annotations

from typing import Optional

__all__ = [
    "fmt_duration",
    "fmt_unix",
    "render_status",
    "render_ls",
    "render_serve",
]


def fmt_duration(s: Optional[float]) -> str:
    """``3723.4`` -> ``1h02m03s``; sub-minute values keep a decimal."""
    if s is None:
        return "-"
    s = max(0.0, float(s))
    if s < 60:
        return f"{s:.1f}s"
    m, sec = divmod(int(round(s)), 60)
    h, m = divmod(m, 60)
    if h:
        return f"{h}h{m:02d}m{sec:02d}s"
    return f"{m}m{sec:02d}s"


def fmt_unix(u: Optional[float]) -> str:
    """Absolute timestamps render as raw epoch seconds.

    Deliberately not local time: golden files must not depend on the
    host timezone, and epoch seconds diff cleanly.
    """
    if u is None:
        return "-"
    return f"@{u:.3f}"


def _live_word(status) -> str:
    if status.live is True:
        return "live"
    if status.live is False:
        return "STALE"
    return "-"


def _progress_bar(pct: Optional[float], width: int = 24) -> str:
    if pct is None:
        return "-" * width
    filled = int(width * min(100.0, max(0.0, pct)) / 100.0)
    return "#" * filled + "." * (width - filled)


def render_status(status, verbose: bool = True) -> str:
    """The full ``repro.obs status`` block for one run."""
    s = status
    lines = [
        f"run {s.run_id}  [{s.state}{'/' + _live_word(s) if s.live is not None else ''}]",
        f"  command:    {s.command or '-'}",
    ]
    if s.resumed_from:
        lines.append(f"  resumed:    from {s.resumed_from}")
    pct = "-" if s.progress_pct is None else f"{s.progress_pct:5.1f}%"
    lines += [
        f"  progress:   [{_progress_bar(s.progress_pct)}] {pct}",
        f"  units:      {s.planned} planned = {s.cached} cached + {s.done} done"
        f" + {s.failed} failed + {s.in_flight} in-flight + {s.queued} queued",
    ]
    if s.fail_kinds:
        kinds = "  ".join(f"{k}:{n}" for k, n in sorted(s.fail_kinds.items()))
        inj = f"  ({s.injected_failures} injected)" if s.injected_failures else ""
        lines.append(f"  failures:   {kinds}{inj}")
    tput = "-" if s.throughput_ups is None else f"{s.throughput_ups:.2f} units/s"
    lines.append(f"  throughput: {tput}   eta: {fmt_duration(s.eta_s)}")
    if s.heartbeat_age_s is not None:
        lines.append(
            f"  heartbeat:  {fmt_duration(s.heartbeat_age_s)} ago "
            f"(interval {fmt_duration(s.heartbeat_interval_s)})"
        )
    if s.stale_units:
        lines.append(
            f"  stale:      {len(s.stale_units)} in-flight unit(s) of a "
            "presumed-dead run (a --resume would re-run them):"
        )
        for label in s.stale_units:
            lines.append(f"              - {label}")
    if verbose:
        lines.append(
            f"  journal:    {s.records} record(s), {s.torn_lines} torn, "
            f"{fmt_unix(s.started_unix)} .. {fmt_unix(s.updated_unix)}"
        )
    return "\n".join(lines)


def render_ls(statuses) -> str:
    """One row per run, newest first — the fleet overview."""
    if not statuses:
        return "no runs"
    head = (
        f"{'run':<22} {'state':<12} {'live':<6} {'progress':>8} "
        f"{'done':>6} {'fail':>5} {'eta':>8} {'updated':>14}"
    )
    lines = [head, "-" * len(head)]
    for s in statuses:
        pct = "-" if s.progress_pct is None else f"{s.progress_pct:.1f}%"
        lines.append(
            f"{s.run_id:<22} {s.state:<12} {_live_word(s):<6} {pct:>8} "
            f"{s.done:>6} {s.failed:>5} {fmt_duration(s.eta_s):>8} "
            f"{fmt_unix(s.updated_unix):>14}"
        )
    return "\n".join(lines)


def render_serve(doc: dict) -> str:
    """The daemon status block: a daemon, live or post-mortem.

    ``doc`` is :func:`~repro.obs.registry.serve_status`'s document; its
    ``live`` key selects between the daemon's own ``/status`` and the
    WAL-replay summary of one that is gone: its terminal state if it
    drained (``stopped``, or ``interrupted`` with work left), else
    ``dead`` with the ``staleness`` verdict of the liveness rule runs
    share (:func:`~repro.obs.registry.liveness`), or ``never ran`` for
    a workdir with no WAL.
    """
    if doc.get("live"):
        u = doc.get("units", {})
        t = doc.get("tickets", {})
        lines = [
            f"serve pid {doc.get('pid')}  [{doc.get('state')}/live]  "
            f"epoch {doc.get('epoch')}  up {fmt_duration(doc.get('uptime_s'))}",
            f"  units:      {u.get('queued', 0)} queued, "
            f"{u.get('leased', 0)} leased, {u.get('done', 0)} done, "
            f"{u.get('failed', 0)} failed",
            f"  tickets:    {t.get('complete', 0)}/{t.get('total', 0)} complete",
        ]
        for name, row in sorted(doc.get("tenants", {}).items()):
            lines.append(
                f"  tenant {name:<12} {row.get('outstanding', 0)} outstanding, "
                f"{row.get('inflight', 0)} in-flight, "
                f"{row.get('rejected', 0)} rejected"
            )
        for lease in doc.get("leases", []):
            lines.append(
                f"  lease #{lease.get('token')}  {lease.get('label')}  "
                f"pid {lease.get('pid')}  age {fmt_duration(lease.get('age_s'))}"
            )
        for dev, b in sorted(doc.get("breakers", {}).items()):
            if b.get("state") != "closed":
                lines.append(
                    f"  breaker {dev}: {b.get('state')} "
                    f"({b.get('consecutive_failures', 0)} consecutive failures)"
                )
        return "\n".join(lines)
    if doc.get("state") == "never-ran":
        return f"serve [never ran]  no daemon has run here ({doc['wal']} absent)"
    by_state = doc.get("by_state", {})
    state = doc.get("state")
    killed = state == "running"  # the boot journaled no terminal state
    if killed:
        state = f"dead/{doc.get('staleness', 'no-heartbeat')}"
    lines = [
        f"serve [{state}]  epoch {doc.get('epoch')}",
        f"  units:      "
        + (", ".join(f"{n} {s}" for s, n in sorted(by_state.items()))
           or "none"),
        f"  tickets:    {doc.get('tickets', 0)}",
        f"  leases:     {doc.get('open_leases', 0)} open"
        + (" at death (reclaimed on next boot)" if killed else ""),
        f"  wal:        {doc.get('wal', '-')} "
        f"({doc.get('records', 0)} record(s), {doc.get('torn_lines', 0)} torn)",
    ]
    return "\n".join(lines)
