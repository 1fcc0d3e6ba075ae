"""Gap attribution — §IV-B's four-way analysis, automated.

Given a benchmark whose PR falls outside the similarity band, the
attributor re-runs targeted ablations matching the paper's analysis:

* **programming-model** (§IV-B.1): re-measure with texture memory
  removed from the CUDA version;
* **native-kernel optimizations** (§IV-B.2): equalize unroll pragmas and
  constant-memory usage across the two versions;
* **architecture** (§IV-B.3): compare the gap across device generations
  (a gap that vanishes on Fermi is a cache-hierarchy artifact);
* **compiler/runtime** (§IV-B.4): compare static instruction mixes of
  the two compiled kernels and the per-launch overhead share.

The result ranks the factors by how much of the gap each ablation
closes — the same reasoning the paper walks through manually.

Since the ``repro.prof`` subsystem landed, every factor cites the
profiler's counters from the baseline run (texture hit rate, launch
overhead share, spill traffic) instead of re-deriving the mechanisms:
the claim "texture memory explains this gap" comes with the measured
hit rate that backs it.
"""
from __future__ import annotations

import dataclasses
from typing import Optional

from ..arch.specs import DeviceSpec
from ..benchsuite.registry import get_benchmark
from .comparison import compare
from .metrics import SIMILARITY_BAND, similar

__all__ = ["Attribution", "Factor", "attribute_gap"]


@dataclasses.dataclass(frozen=True)
class Factor:
    name: str
    description: str
    #: PR after the equalizing ablation (None when not applicable)
    pr_after: Optional[float]
    #: |PR-1| reduction achieved by the ablation (0 when n/a)
    gap_closed: float


@dataclasses.dataclass
class Attribution:
    benchmark: str
    device: str
    pr_before: float
    factors: list
    #: profiler counters cited by the factor descriptions (repro.prof)
    evidence: dict = dataclasses.field(default_factory=dict)

    @property
    def dominant(self) -> Optional[Factor]:
        real = [f for f in self.factors if f.pr_after is not None]
        return max(real, key=lambda f: f.gap_closed) if real else None

    def report(self) -> str:
        lines = [
            f"{self.benchmark} on {self.device}: PR = {self.pr_before:.3f}"
        ]
        for f in sorted(
            self.factors, key=lambda f: -(f.gap_closed or 0.0)
        ):
            pr = "n/a" if f.pr_after is None else f"{f.pr_after:.3f}"
            lines.append(
                f"  {f.name:24s} PR after ablation: {pr:>6s}  "
                f"gap closed: {f.gap_closed:+.3f}"
            )
        d = self.dominant
        if d is not None:
            lines.append(f"  dominant factor: {d.name}")
        if self.evidence:
            lines.append("  profiler evidence (repro.prof):")
            for api, ev in sorted(self.evidence.items()):
                lines.append(
                    f"    {api:6s} tex hit {ev['texture_hit_rate']:.1%} "
                    f"({ev['texture_fetches']} fetches)  "
                    f"launch overhead {ev['launch_overhead_s'] * 1e6:.1f}us  "
                    f"spill {ev['spill_bytes']:.0f}B  "
                    f"tx/req {ev['transactions_per_request']:.2f}  "
                    f"bound: {ev['bound']}"
                )
        return "\n".join(lines)


def _gap(pr: float) -> float:
    return abs(1.0 - pr)


def attribute_gap(
    name: str, spec: DeviceSpec, size: str = "small"
) -> Attribution:
    """Run the ablation battery for one benchmark/device pair."""
    bench = get_benchmark(name)
    base = compare(bench, spec, size=size)
    pr0 = base.pr.pr
    factors: list = []
    opts = bench.default_options

    # profiler counters from the baseline run: the factors below cite
    # these instead of re-deriving the mechanisms they blame
    cp, olp = base.cuda_profile, base.opencl_profile
    evidence: dict = {}
    for api, prof in (("cuda", cp), ("opencl", olp)):
        if prof is None:
            continue
        tex = prof.caches.get("tex")
        evidence[api] = {
            "texture_fetches": tex.accesses if tex is not None else 0,
            "texture_hit_rate": prof.texture_hit_rate,
            "launch_overhead_s": prof.launch_overhead_s,
            "spill_bytes": prof.spill_bytes,
            "transactions_per_request": prof.transactions_per_request,
            "bound": prof.bound_term or prof.bound,
        }

    # programming model: texture memory (CUDA-only facility)
    if "use_texture" in opts:
        tex_note = ""
        if cp is not None and cp.caches.get("tex") is not None:
            tex = cp.caches["tex"]
            if tex.accesses:
                tex_note = (
                    f"; profiled texture hit rate {tex.hit_rate():.1%} "
                    f"over {tex.accesses} fetches"
                )
        ab = compare(
            bench, spec, size=size, cuda_options={"use_texture": False}
        )
        factors.append(
            Factor(
                "programming-model",
                "remove texture memory from the CUDA version (Fig. 5)"
                + tex_note,
                ab.pr.pr,
                _gap(pr0) - _gap(ab.pr.pr),
            )
        )
    else:
        factors.append(
            Factor("programming-model", "no texture usage to equalize", None, 0.0)
        )

    # native-kernel optimizations: constant memory / unroll pragmas
    equalized = {}
    if "use_constant" in opts:
        equalized["use_constant"] = True
    if "unroll_a" in opts:
        equalized["unroll_a"] = None
    if equalized:
        ab = compare(
            bench,
            spec,
            size=size,
            cuda_options=dict(equalized),
            opencl_options=dict(equalized),
        )
        factors.append(
            Factor(
                "native-optimizations",
                f"equalize {sorted(equalized)} in both versions (Figs. 6-8)",
                ab.pr.pr,
                _gap(pr0) - _gap(ab.pr.pr),
            )
        )
    else:
        factors.append(
            Factor(
                "native-optimizations",
                "both versions already use identical optimizations",
                None,
                0.0,
            )
        )

    # architecture: does the gap survive on the other NVIDIA generation?
    from ..arch.specs import GTX280, GTX480

    other = GTX480 if spec.name == GTX280.name else GTX280
    cross = compare(bench, other, size=size)
    factors.append(
        Factor(
            "architecture",
            f"same comparison on {other.name} (cache hierarchy, §IV-B.3)",
            cross.pr.pr,
            _gap(pr0) - _gap(cross.pr.pr),
        )
    )

    # compiler/runtime: static instruction-mix disparity as evidence
    from ..kir.dialect import CUDA, OPENCL
    from ..ptx.stats import class_totals, histogram
    from ..runtime.overhead import compile_for

    def first_kernel_mix(api: str, dialect) -> dict:
        params, opts, defines = bench.build_inputs(dialect, spec, size)
        k = bench.build_kernels(dialect, opts, defines, params)[0]
        return class_totals(histogram(compile_for(api, k, spec)))

    hc, ho = first_kernel_mix("cuda", CUDA), first_kernel_mix("opencl", OPENCL)
    tc, to = sum(hc.values()), sum(ho.values())
    imbalance = abs(to - tc) / max(tc, 1)
    spill_note = ""
    if cp is not None and olp is not None and (cp.spill_bytes or olp.spill_bytes):
        spill_note = (
            f"; profiled spill traffic CUDA={cp.spill_bytes:.0f}B "
            f"OpenCL={olp.spill_bytes:.0f}B"
        )
    factors.append(
        Factor(
            "compiler",
            f"static instruction count CUDA={tc} OpenCL={to} "
            f"(front-end maturity, Table V)" + spill_note,
            None,
            min(imbalance, _gap(pr0)),
        )
    )

    # runtime: per-launch overhead, measured by the profiler on the
    # baseline run (the BFS mechanism of §IV-B.4)
    if cp is not None and olp is not None:
        c_share = cp.launch_overhead_s / max(
            cp.launch_overhead_s + cp.total_s, 1e-12
        )
        o_share = olp.launch_overhead_s / max(
            olp.launch_overhead_s + olp.total_s, 1e-12
        )
        factors.append(
            Factor(
                "runtime-overhead",
                f"profiled launch overhead "
                f"CUDA {cp.launch_overhead_s * 1e6:.1f}us "
                f"({c_share:.1%} of device time) vs "
                f"OpenCL {olp.launch_overhead_s * 1e6:.1f}us "
                f"({o_share:.1%}) — §IV-B.4",
                None,
                min(max(o_share - c_share, 0.0), _gap(pr0)),
            )
        )

    return Attribution(name, spec.name, pr0, factors, evidence=evidence)
