"""Generate EXPERIMENTS.md: paper-vs-measured for every figure/table.

Runs the complete experiment suite at the requested size and renders a
markdown report with, per experiment: the regenerated rows, each shape
check (paper's reported value vs. ours, PASS/MISS), and the documented
deviations.  This is how the repository's EXPERIMENTS.md is produced:

    python -m repro.experiments.paperdoc [--size default] [-o EXPERIMENTS.md]
"""
from __future__ import annotations

import argparse

from .. import exec as rexec
from ..exec.lifecycle import SweepRun, add_sweep_arguments
from . import EXPERIMENTS
from .report import ExperimentResult, fmt
from .runner import collect_units

__all__ = ["generate", "main"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.experiments.paperdoc --size {size}`.
Every figure and table of *A Comprehensive Performance Comparison of
CUDA and OpenCL* (Fang, Varbanescu, Sips; ICPP 2011) is regenerated on
the simulated substrate; each **shape check** records the paper's
reported value next to ours and whether the qualitative result — who
wins, by roughly what factor, where the crossovers fall — holds.

Absolute numbers are *not* expected to match: the substrate is a
calibrated analytical simulator, not the authors' 2010 testbed (see
DESIGN.md §"Substitution").  Calibration constants live in
`src/repro/arch/specs.py`, each annotated with the paper observation it
was fitted against.

| experiment | paper content | checks |
|---|---|---|
{index_rows}

"""

_TITLES = {
    "fig1": "Peak device-memory bandwidth (Eq. 2 + DeviceMemory)",
    "fig2": "Peak floating-point throughput (Eq. 3 + MaxFlops)",
    "fig3": "PR of all real-world benchmarks on GTX280/GTX480",
    "fig4": "Texture-memory impact on CUDA MD/SPMV",
    "fig5": "PR before/after removing texture memory",
    "fig6": "FDTD loop-unrolling impact (CUDA)",
    "fig7": "FDTD unroll points: CUDA vs OpenCL, incl. the collapse",
    "fig8": "Sobel with/without constant memory per GPU generation",
    "table5": "PTX instruction statistics for the FFT forward kernel",
    "table6": "OpenCL portability across HD5870 / Intel920 / Cell-BE",
}

#: honest notes about known magnitude deviations, kept with the data
_DEVIATIONS = {
    "fig1": [
        "The paper's +8.5%/+2.4% OpenCL bandwidth advantage does not "
        "reproduce; our toolchains land within ~1.5% of each other with "
        "CUDA marginally ahead (its auto-unrolled stream issues fewer "
        "instructions). Direction 'OpenCL not slower' is checked instead.",
    ],
    "fig2": [
        "Achieved-peak fractions land a few points below the paper "
        "(67.7% vs 71.5% on GTX280, 92.1% vs 97.7% on GTX480): the "
        "modeled chain pays loop/setup overhead the authors' longer "
        "kernels amortize further.",
    ],
    "fig3": [
        "MxM and RdxS sit lower than the paper's bars (~0.6 vs ~0.8-0.9): "
        "the modeled CLC addressing overhead is relatively larger on "
        "compute-bound tiled kernels than the real 2010 compiler's.",
    ],
    "fig6": [
        "The unrolling benefit is stronger here (~1.6x) than the paper's "
        "~1.18x: constant-propagated plane addressing removes a larger "
        "share of our modeled issue cost.",
    ],
    "fig7": [
        "The paper's OpenCL_b outruns CUDA_b by 15.1% on GTX280 (an "
        "occupancy boundary effect on the real chip); here OpenCL_b "
        "trails CUDA_b by the CLC addressing overhead instead. The "
        "figure's headline result — adding pragma a collapses the "
        "OpenCL build via register spills, milder on Fermi — holds.",
    ],
    "fig8": [],
    "fig4": [
        "GTX480/SPMV texture retention is milder than the paper's 44.3% "
        "(the modeled L1 covers more of the gather stream).",
    ],
    "fig5": [],
    "table5": [
        "Absolute instruction counts differ from Table V (different FFT "
        "source); every *ratio* the paper calls out is checked instead.",
    ],
    "table6": [
        "Absolute portability numbers are simulator-scale; checked are "
        "the failure modes (ABT/FL), which benchmarks run, and the "
        "device ordering.",
    ],
}


def _md_table(res: ExperimentResult) -> str:
    head = "| " + " | ".join(str(c) for c in res.columns) + " |"
    sep = "|" + "|".join("---" for _ in res.columns) + "|"
    rows = [
        "| " + " | ".join(fmt(r.get(c)) for c in res.columns) + " |"
        for r in res.rows
    ]
    return "\n".join([head, sep] + rows)


def generate(size: str = "default", names=None) -> str:
    names = list(names or EXPERIMENTS)
    rexec.active().prewarm(collect_units(names, size))
    sections = []
    index_rows = []
    for name in names:
        res = EXPERIMENTS[name].run(size=size)
        live = [c for c in res.checks if not c.get("skipped")]
        npass = sum(1 for c in live if c["holds"])
        nskip = len(res.checks) - len(live)
        counts = f"{npass}/{len(live)} hold"
        if nskip:
            counts += f", {nskip} skipped at this size"
        index_rows.append(
            f"| {name} | {_TITLES.get(name, res.title)} | {counts} |"
        )
        lines = [f"## {name} — {res.title}", "", _md_table(res), ""]
        if res.checks:
            lines.append("| shape check | paper | measured | holds |")
            lines.append("|---|---|---|---|")
            for c in res.checks:
                if c.get("skipped"):
                    mark = f"skip (n/a at size={size})"
                else:
                    mark = "**PASS**" if c["holds"] else "MISS"
                lines.append(
                    f"| {c['what']} | {c['paper']} | {c['measured']} | {mark} |"
                )
            lines.append("")
        for n in _DEVIATIONS.get(name, []):
            lines.append(f"*Deviation:* {n}")
            lines.append("")
        for n in res.notes:
            if "\n" not in n:
                lines.append(f"*Note:* {n}")
                lines.append("")
        sections.append("\n".join(lines))
    return _HEADER.format(size=size, index_rows="\n".join(index_rows)) + "\n".join(
        sections
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", default="default", choices=["small", "default"])
    ap.add_argument("-o", "--output", default="EXPERIMENTS.md")
    ap.add_argument("--only", nargs="*", default=None)
    add_sweep_arguments(ap, lifecycle=False)  # no journal, drain or --resume
    args = ap.parse_args(argv)
    with SweepRun(args, "repro.experiments.paperdoc") as run:
        text = generate(size=args.size, names=args.only)
    with open(args.output, "w") as f:
        f.write(text)
    print(f"wrote {args.output}")
    return run.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
