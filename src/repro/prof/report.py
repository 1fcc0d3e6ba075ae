"""ASCII rendering of launch profiles (the ``repro.prof`` report).

One launch renders as a sectioned card: host phases, timing-model
breakdown with the bounding term, issue cycles by Table-V class,
coalescer metrics, cache table, shared/spill counters, occupancy.
A run of launches renders as a per-launch table plus the aggregate card.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .profile import LaunchProfile, aggregate

__all__ = [
    "render_profile",
    "render_run",
    "render_sweep",
    "render_failures",
]

#: Table-V class display order
_CLASS_ORDER = [
    "Arithmetic",
    "Logic/Shift",
    "Data Movement",
    "Flow Control",
    "Synchronization",
    "Other",
]


def _fmt_s(s: float) -> str:
    if s >= 1.0:
        return f"{s:.3f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.3f} ms"
    return f"{s * 1e6:.2f} us"


def _fmt_bytes(b: float) -> str:
    if b >= 1 << 30:
        return f"{b / (1 << 30):.2f} GiB"
    if b >= 1 << 20:
        return f"{b / (1 << 20):.2f} MiB"
    if b >= 1 << 10:
        return f"{b / (1 << 10):.2f} KiB"
    return f"{b:.0f} B"


def render_profile(p: LaunchProfile, title: Optional[str] = None) -> str:
    lines = [
        f"== {title or p.kernel} on {p.device} ({p.api}) ==",
        f"grid {p.grid} block {p.block}   blocks run: {p.blocks}   "
        f"barriers: {p.barriers}",
        "",
        "host phases:",
        f"  compile         {_fmt_s(p.compile_s):>12}",
        f"  launch overhead {_fmt_s(p.launch_overhead_s):>12}",
        f"  kernel          {_fmt_s(p.total_s):>12}",
        "",
        f"timing model (bound: {p.bound_term or p.bound}):",
        f"  comp {_fmt_s(p.comp_s):>12}   mem {_fmt_s(p.mem_s):>12}   "
        f"bw {_fmt_s(p.bw_s):>12}   camping {_fmt_s(p.hot_s):>12}",
        "",
        "issue cycles by instruction class:",
    ]
    total_cyc = sum(p.issue_cycles.values()) or 1.0
    for klass in _CLASS_ORDER:
        cycles = p.issue_cycles.get(klass)
        if cycles is None:
            continue
        lines.append(
            f"  {klass:<16} {cycles:>14.0f}  ({100.0 * cycles / total_cyc:5.1f}%)"
        )
    lines += [
        "",
        "global memory (coalescer):",
        f"  requests     {p.gmem_requests:>12}",
        f"  transactions {p.gmem_transactions:>12}"
        f"   ({p.transactions_per_request:.2f} per request)",
        f"  DRAM traffic {_fmt_bytes(p.dram_bytes):>12}",
        "",
        "caches:",
        f"  {'cache':<8}{'accesses':>10}{'hits':>10}{'misses':>10}{'hit rate':>10}",
    ]
    for name in ("const", "tex", "l1", "l2", "null"):
        st = p.caches.get(name)
        if st is None:
            continue
        lines.append(
            f"  {name:<8}{st.accesses:>10}{st.hits:>10}{st.misses:>10}"
            f"{st.hit_rate():>9.1%}"
        )
    lines += [
        "",
        "shared memory / spills:",
        f"  shared accesses {p.shared_accesses:>10}   bank replays "
        f"{p.shared_bank_replays:>8}",
        f"  spill traffic   {_fmt_bytes(p.spill_bytes):>10}",
        "",
        f"occupancy: {p.occupancy_warps} warps/CU, {p.occupancy_blocks} "
        f"blocks/CU (limiter: {p.occupancy_limiter or 'n/a'})",
        f"dynamic warp instructions: {p.warp_instructions} "
        f"({p.mem_instructions} memory)",
    ]
    violations = p.check()
    if violations:
        lines.append("")
        lines.append("INVARIANT VIOLATIONS:")
        lines += [f"  !! {v}" for v in violations]
    return "\n".join(lines)


def render_run(
    profiles: Sequence[LaunchProfile], title: str = "run"
) -> str:
    """Per-launch table + aggregate card for a whole benchmark run."""
    if not profiles:
        return f"== {title}: no launches recorded =="
    head = (
        f"{'#':>3} {'kernel':<24} {'grid':>12} {'time':>12} "
        f"{'bound':>10} {'tpr':>6} {'DRAM':>10}"
    )
    lines = [f"== {title}: {len(profiles)} launch(es) ==", head, "-" * len(head)]
    for i, p in enumerate(profiles):
        g = "x".join(str(d) for d in p.grid)
        lines.append(
            f"{i:>3} {p.kernel[:24]:<24} {g:>12} {_fmt_s(p.total_s):>12} "
            f"{(p.bound_term or p.bound):>10} "
            f"{p.transactions_per_request:>6.2f} "
            f"{_fmt_bytes(p.dram_bytes):>10}"
        )
    agg = aggregate(profiles, label=f"{title} (aggregate)")
    lines += ["", render_profile(agg, title=f"{title} aggregate")]
    return "\n".join(lines)


def render_sweep(stats, title: str = "sweep") -> str:
    """Per-unit timing + cache hit/miss table for a sweep execution.

    ``stats`` is a :class:`repro.exec.SweepStats`; this lives on the
    profiler's report path so the sweep engine's accounting renders in
    the same ASCII style as the launch profiles it summarizes.  The
    ``failure`` column is each result's Table VI tag ("ABT" for a
    kernel the device could not admit), as its own launch decided it.
    """
    recs = list(stats.records)
    fails = list(getattr(stats, "failures", ()))
    if not recs and not fails:
        return f"== {title}: no work units served =="
    width = max(24, max((len(r.label) for r in recs), default=0))
    head = (
        f"{'unit':<{width}} {'served':>8} {'sim time':>12} {'failure':>8} "
        f"{'digest':>10}"
    )
    failed = f", {len(fails)} failed" if fails else ""
    lines = [
        f"== {title}: {len(recs)} unit request(s), {stats.hits} hit(s), "
        f"{stats.misses} simulated{failed} ==",
        head,
        "-" * len(head),
    ]
    for r in recs:
        lines.append(
            f"{r.label:<{width}} {r.source:>8} {_fmt_s(r.sim_seconds):>12} "
            f"{r.failure or '-':>8} {r.digest[:8]:>10}"
        )
    lines.append("-" * len(head))
    lines.append(
        f"{'total simulation time':<{width}} {'':>8} "
        f"{_fmt_s(stats.sim_seconds):>12}"
    )
    mem = getattr(stats, "mem_hits", None)
    if mem is not None:
        quarantined = getattr(stats, "quarantined", 0)
        q = f", {quarantined} quarantined" if quarantined else ""
        lines.append(
            f"cache: {mem} memo hit(s), {stats.disk_hits} disk hit(s){q}, "
            f"{_fmt_s(stats.cache_serve_seconds)} sim time served from cache"
        )
    resumed = getattr(stats, "resumed", None)
    if resumed:
        lines.append(
            f"resume: continued run {resumed.get('from')} "
            f"({resumed.get('completed', 0)} completed, "
            f"{resumed.get('in_flight', 0)} in flight at interrupt); "
            f"{getattr(stats, 'resumed_hits', 0)} unit(s) served from its "
            "journaled results"
        )
    demoted = getattr(stats, "demoted", None)
    if demoted:
        lines.append(
            f"DEGRADED MODE: demoted to sequential after "
            f"{demoted.get('incidents')} broken-pool incident(s) "
            f"({demoted.get('reason')})"
        )
    if fails:
        lines += ["", render_failures(stats)]
    return "\n".join(lines)


def render_failures(stats, title: str = "failed units") -> str:
    """The failure table of a sweep: the paper's Table VI, operationally.

    One row per :class:`repro.exec.FailedUnit` — which unit, its
    classified :class:`~repro.errors.FailureKind`, how many attempts it
    got, whether the fault was injected by ``repro.faults`` (chaos
    runs), and the final error.
    """
    fails = list(getattr(stats, "failures", ()))
    if not fails:
        return f"== {title}: none =="
    width = max(24, max(len(f.label) for f in fails))
    head = (
        f"{'unit':<{width}} {'kind':>10} {'attempts':>9} {'injected':>9}  error"
    )
    lines = [f"== {title}: {len(fails)} ==", head, "-" * len(head)]
    for f in fails:
        msg = f.error if len(f.error) <= 60 else f.error[:57] + "..."
        lines.append(
            f"{f.label:<{width}} {f.kind:>10} {f.attempts:>9} "
            f"{'yes' if f.injected else 'no':>9}  {msg}"
        )
    return "\n".join(lines)
