"""Every kernel the paper sweep builds compiles to pinned bytes.

For each unit of the small paper sweep, each kernel the unit builds is
compiled with the unit's front end at the register budget its launch
gets (``spec.launch_reg_budget(wg_hint)``), and the printed PTX, the
resource usage, the producer and the build defines are hashed.  The
hashes are compared with ``tests/fixtures/ptx_pin.json``, so a change to
the front ends, the register budget or the build inputs that moves a
single instruction fails here, before any simulated number can move.

Regenerate the fixture (only for an intended codegen change) with::

    PYTHONPATH=src python tests/compiler/test_ptx_pin.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ptx_pin.json"


def _kernel_hash(ptx) -> str:
    from repro.ptx.printer import format_kernel

    h = hashlib.sha256(format_kernel(ptx).encode())
    h.update(json.dumps(dataclasses.asdict(ptx.resources), sort_keys=True).encode())
    h.update(f"\0{ptx.producer}\0".encode())
    h.update(json.dumps(ptx.defines, sort_keys=True).encode())
    return h.hexdigest()


def pin() -> dict:
    """``{unit label: [[kernel name, hash], ...]}`` over the small sweep."""
    from repro.compiler import compile_cuda, compile_opencl
    from repro.exec.unit import unit_build
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import collect_units

    out: dict = {}
    for unit in dict.fromkeys(collect_units(list(EXPERIMENTS), "small")):
        label = unit.label()
        assert label not in out, f"two units labelled {label}"
        bench, dialect, params, opts, defines = unit_build(unit)
        compile_fn = compile_cuda if unit.api == "cuda" else compile_opencl
        rows = []
        for k in bench.build_kernels(dialect, opts, defines, params):
            ptx = compile_fn(k, max_regs=unit.spec.launch_reg_budget(k.wg_hint))
            rows.append([k.name, _kernel_hash(ptx)])
        out[label] = rows
    return out


def test_sweep_ptx_matches_pin():
    want = json.loads(FIXTURE.read_text())
    got = pin()
    assert sorted(got) == sorted(want)
    moved = [label for label in want if got[label] != want[label]]
    assert not moved, f"{len(moved)} units compile to new PTX: {moved[:5]}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
