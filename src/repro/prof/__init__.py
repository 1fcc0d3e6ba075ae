"""``repro.prof`` — structured per-launch profiling.

Lightweight imports only: :mod:`~repro.prof.profile`, report, and trace
have no simulator dependencies, so ``sim.device`` can attach profiles
without an import cycle.  Running a benchmark is not this package's
job: :func:`repro.exec.unit.execute` hands back each launch's profile as
``UnitResult.launches``, and the CLI (``python -m repro.prof <benchmark>
--device gtx480``) renders them.
"""
from .profile import LaunchProfile, aggregate, build_launch_profile
from .report import render_profile, render_run
from .trace import chrome_trace, write_chrome_trace

__all__ = [
    "LaunchProfile",
    "aggregate",
    "build_launch_profile",
    "render_profile",
    "render_run",
    "chrome_trace",
    "write_chrome_trace",
]
