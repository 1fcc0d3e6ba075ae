"""Work units — the atoms of a sweep.

The paper's methodology is a sweep: 16 benchmarks x 2 APIs x several
devices and problem sizes (Figs. 1-8, Tables V-VI).  A
:class:`WorkUnit` names one independent cell of that sweep — *one
benchmark run under one API on one device at one size with one option
set* — which is exactly the granularity at which runs can be fanned out
over processes and memoized on disk.

This module owns a unit's identity.  :func:`make_unit` gives equal work
one spelling (options sorted, default-valued options dropped), and
:func:`unit_to_dict` / :func:`unit_from_dict` are its one JSON form, the
one the cache, the daemon's API and its WAL all store.  Every unit has a
content-addressed :func:`unit_digest` over everything that determines
its result: the benchmark, API and size, the full :class:`DeviceSpec`
including calibration constants, the resolved build inputs (problem-size
parameters, options, defines), the ``repro`` package version, and a
digest of the source of every package that decides what a unit computes
(:func:`code_digest`) — which includes the code that builds its
kernels.  Editing the simulator, a runtime or a front end therefore
invalidates cached results without a version bump; editing the engine,
the daemon or the observability layers does not.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from pathlib import Path
from typing import Mapping, Optional

from .._version import __version__
from ..arch.specs import DeviceSpec, device_by_name
from ..benchsuite.base import BenchResult, host_for
from ..benchsuite.registry import get_benchmark
from ..kir.dialect import CUDA, OPENCL

__all__ = [
    "WorkUnit",
    "UnitResult",
    "make_unit",
    "unit_to_dict",
    "unit_from_dict",
    "unit_build",
    "unit_fingerprint",
    "unit_digest",
    "code_digest",
    "execute",
]


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One (benchmark, api, device, size, options) cell of a sweep."""

    benchmark: str
    api: str  # "cuda" | "opencl"
    device: str  # DeviceSpec.name
    size: str = "default"
    #: canonicalized option overrides: sorted ((key, value), ...) pairs
    options: tuple = ()

    @property
    def spec(self) -> DeviceSpec:
        return device_by_name(self.device)

    def label(self) -> str:
        opts = ",".join(f"{k}={v}" for k, v in self.options)
        base = f"{self.benchmark}/{self.api}@{self.device}[{self.size}]"
        return f"{base}{{{opts}}}" if opts else base


@dataclasses.dataclass
class UnitResult:
    """What one executed (or cache-served) work unit produced."""

    unit: WorkUnit
    bench: BenchResult
    #: aggregated :class:`~repro.prof.profile.LaunchProfile` of the run,
    #: labeled ``"<benchmark>/<api>"``; None when nothing launched
    profile: object
    #: wall seconds the simulation took when it actually ran
    seconds: float
    #: True when served from the result cache instead of simulated
    cached: bool = False
    #: the run's per-launch :class:`~repro.prof.profile.LaunchProfile`
    #: list, kept only by a fresh :func:`execute`: it has no JSON form
    launches: list = dataclasses.field(default_factory=list)


def _dialect(api: str):
    return CUDA if api == "cuda" else OPENCL


def _frozen(v):
    """JSON gives arrays back as lists; a unit holds them as tuples."""
    return tuple(_frozen(x) for x in v) if isinstance(v, (list, tuple)) else v


def make_unit(
    benchmark: str,
    api: str,
    device,
    size: str = "default",
    options: Optional[Mapping] = None,
) -> WorkUnit:
    """Build the canonical :class:`WorkUnit` for one sweep cell.

    Options are sorted by key, and an option whose value equals the
    benchmark's default for this API (same value, same type) is dropped,
    so equal work has one unit, one label and one digest whatever way it
    was spelled.  Unknown keys and ``rewrite`` tokens are kept.  A
    device is stored as :func:`device_by_name` resolves it (``gtx480``
    is ``GTX480``).
    """
    name = device.name if isinstance(device, DeviceSpec) else device_by_name(device).name
    opts = {str(k): _frozen(v) for k, v in (options or {}).items()}
    if opts:
        defaults = get_benchmark(str(benchmark)).options_for(_dialect(api), None)
        for k, v in list(opts.items()):
            if k in defaults and type(v) is type(defaults[k]) and v == defaults[k]:
                del opts[k]
    return WorkUnit(
        benchmark=str(benchmark), api=str(api), device=name, size=str(size),
        options=tuple(sorted(opts.items())),
    )


def unit_to_dict(unit: WorkUnit) -> dict:
    """The unit's JSON form (cache entries, daemon API and WAL)."""
    return {
        "benchmark": unit.benchmark,
        "api": unit.api,
        "device": unit.device,
        "size": unit.size,
        "options": [list(kv) for kv in unit.options],
    }


def unit_from_dict(d: Mapping) -> WorkUnit:
    """The canonical unit of a JSON form; ``options`` may be pairs or a dict."""
    return make_unit(
        d["benchmark"], d["api"], d["device"], d.get("size", "default"),
        dict(d.get("options") or ()),
    )


def _plain(v):
    """Flatten a value into JSON-stable primitives."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items(), key=lambda i: str(i[0]))}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, bool, int, float)) or v is None:
        return v
    if hasattr(v, "item"):  # numpy scalars
        return v.item()
    return repr(v)


def unit_build(unit: WorkUnit, spec: Optional[DeviceSpec] = None) -> tuple:
    """Resolve the unit's build inputs exactly as a run would.

    Returns ``(bench, dialect, params, opts, defines)``, the last three
    from ``Benchmark.build_inputs`` as ``Benchmark.run`` takes them.
    :func:`unit_fingerprint` keys on these inputs and the ABT preflight
    and variant planning build from them, so the key, the kernels and
    the run can never drift apart.
    """
    spec = spec if spec is not None else unit.spec
    bench = get_benchmark(unit.benchmark)
    dialect = _dialect(unit.api)
    params, opts, defines = bench.build_inputs(
        dialect, spec, unit.size, dict(unit.options)
    )
    return bench, dialect, params, opts, defines


#: the installed ``repro`` package whose model sources key the cache
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: what a unit computes is decided by these packages (plus errors.py);
#: the engine, daemon and observability layers only move results around
MODEL_PACKAGES = (
    "arch", "benchsuite", "compiler", "kir", "ptx", "prof", "runtime", "sim",
)


@functools.lru_cache(maxsize=None)
def code_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of the model's source.

    Computed once per process, on the first digest a sweep asks for,
    so importing the package stays as cheap as before.
    """
    files = [p for pkg in MODEL_PACKAGES for p in (root / pkg).rglob("*.py")]
    files.append(root / "errors.py")
    h = hashlib.sha256()
    for rel, path in sorted((p.relative_to(root).as_posix(), p) for p in files):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def unit_fingerprint(
    unit: WorkUnit,
    spec: Optional[DeviceSpec] = None,
    version: Optional[str] = None,
) -> dict:
    """Everything that determines the unit's result, as a JSON payload.

    ``spec``/``version`` overrides exist for tests that probe the
    invalidation rules without editing global state.
    """
    spec = spec if spec is not None else unit.spec
    _, _, params, opts, defines = unit_build(unit, spec)
    return {
        "benchmark": unit.benchmark,
        "api": unit.api,
        "size": unit.size,
        "device": _plain(dataclasses.asdict(spec)),
        "params": _plain(params),
        "options": _plain(opts),
        "defines": _plain(defines),
        "version": version if version is not None else __version__,
        "code": code_digest(PACKAGE_ROOT),
    }


def digest_of_fingerprint(fp: Mapping) -> str:
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def unit_digest(
    unit: WorkUnit,
    spec: Optional[DeviceSpec] = None,
    version: Optional[str] = None,
) -> str:
    """The unit's content address (sha256 hex)."""
    return digest_of_fingerprint(unit_fingerprint(unit, spec=spec, version=version))


def execute(unit: WorkUnit, attempt: int = 1, faults=None) -> UnitResult:
    """Actually simulate one work unit (no caching at this layer).

    The one place in the package that builds a host and runs a
    benchmark: the engine, the daemon's workers and the profiler CLI
    all run units here.

    ``attempt``/``faults`` are the fault-injection boundary: when a
    :class:`repro.faults.FaultInjector` is supplied, it fires any fault
    planned for this unit's label *before* the simulation runs, so
    injected failures behave exactly like real ones to every layer
    above (retry, quarantine, reporting).
    """
    from ..prof.profile import aggregate

    if faults is not None:
        faults.fire(unit.label(), attempt)
    bench = get_benchmark(unit.benchmark)
    host = host_for(unit.api, unit.spec)
    t0 = time.perf_counter()
    result = bench.run(host, size=unit.size, options=dict(unit.options) or None)
    seconds = time.perf_counter() - t0
    launches = host.sim.profiles
    return UnitResult(
        unit=unit, bench=result, seconds=seconds, launches=launches,
        profile=aggregate(launches, label=f"{bench.name}/{unit.api}"),
    )
