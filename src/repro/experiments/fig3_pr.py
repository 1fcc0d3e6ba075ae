"""Fig. 3 — PR of all real-world benchmarks on GTX280 and GTX480.

The paper's headline chart: for most applications CUDA is at most ~30%
faster (PR >= 0.7); Sobel is the outlier (PR ~3.2 on GTX280, ~0.83 on
GTX480, the constant-memory/caches story) and FFT shows the largest
CUDA advantage (front-end maturity).
"""
from __future__ import annotations

from ..arch.specs import GTX280, GTX480
from ..benchsuite.registry import REAL_WORLD
from ..core.comparison import compare
from ..exec import make_unit
from .report import ExperimentResult

__all__ = ["run", "units"]


def units(size: str = "default") -> list:
    return [
        make_unit(name, api, spec, size)
        for name in REAL_WORLD
        for spec in (GTX280, GTX480)
        for api in ("cuda", "opencl")
    ]


def run(size: str = "default") -> ExperimentResult:
    res = ExperimentResult(
        "fig3",
        "Performance Ratio (OpenCL/CUDA) for all real-world benchmarks",
        ["benchmark", "PR GTX280", "PR GTX480", "verdict GTX280", "verdict GTX480"],
        [],
        size=size,
    )
    prs = {}
    for name in REAL_WORLD:
        row = {"benchmark": name}
        for spec in (GTX280, GTX480):
            out = compare(name, spec, size=size)
            prs[(name, spec.name)] = out.pr.pr
            row[f"PR {spec.name}"] = out.pr.pr
            row[f"verdict {spec.name}"] = out.pr.verdict
        res.add(**row)

    in_band = [
        v
        for (n, d), v in prs.items()
        if n not in ("Sobel",) and v == v  # not NaN
    ]
    frac = sum(1 for v in in_band if v >= 0.7) / max(len(in_band), 1)
    res.check(
        "for most applications, CUDA performs at most 30% better (PR >= 0.7)",
        "majority of measurements",
        f"{100 * frac:.0f}% of non-Sobel PRs >= 0.7",
        frac >= 0.5,
    )
    res.check(
        "Sobel on GTX280: OpenCL much faster (constant memory vs no cache)",
        "PR ~3.2",
        f"PR {prs[('Sobel', 'GTX280')]:.2f}",
        prs[("Sobel", "GTX280")] > 1.5,
    )
    res.check(
        "Sobel on GTX480: advantage gone (Fermi caches)",
        "PR ~0.83",
        f"PR {prs[('Sobel', 'GTX480')]:.2f}",
        0.6 < prs[("Sobel", "GTX480")] < 1.25,
    )
    fft_is_low = all(
        prs[("FFT", d)] <= min(v for (n, v) in [(k[0], vv) for k, vv in prs.items() if k[1] == d and k[0] != "Sobel"]) + 0.15
        for d in ("GTX280", "GTX480")
    )
    res.check(
        "FFT shows the largest CUDA advantage",
        "lowest PR of all benchmarks",
        f"PR280={prs[('FFT', 'GTX280')]:.2f} PR480={prs[('FFT', 'GTX480')]:.2f}",
        prs[("FFT", "GTX280")] < 0.75 and prs[("FFT", "GTX480")] < 0.75,
    )
    res.check(
        "BFS: OpenCL slower end-to-end (kernel launch time)",
        "PR < 1",
        f"PR280={prs[('BFS', 'GTX280')]:.2f} PR480={prs[('BFS', 'GTX480')]:.2f}",
        prs[("BFS", "GTX280")] < 0.95 and prs[("BFS", "GTX480")] < 0.95,
    )
    return res
