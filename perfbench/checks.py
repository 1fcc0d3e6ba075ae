"""Correctness checks against the reference stored with the benchmark.

Every timed pass is checked for what it produced:

* the sha256 of the canonical results document
  (:func:`repro.exec.cache.canonical_results_json`, see
  :func:`summarize` for the one block it leaves out), with deterministic
  counters read from the same results: simulated launches (in total
  and per API), warp instructions and DRAM bytes;
* the sha256 of every rendered experiment report;
* every paper shape check.

``reference.json`` was recorded with ``python3 perfbench/run.py
--record-reference`` on the commit named in it.  Mismatches count as
failed operations; they never stop a run early.
"""
from __future__ import annotations

import collections
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def summarize(doc) -> dict:
    """Digest and deterministic counters of one canonical results document.

    The digest leaves out each row's ``unit`` block: two spellings of a
    unit can share one content address (``FDTD`` with no options and
    with ``unroll_a=None``), and the cached entry names whichever ran
    first, so that block depends on the order a sweep ran in.
    """
    raw = doc.encode() if isinstance(doc, str) else bytes(doc)
    rows = json.loads(raw)["results"]
    body = sorted(
        json.dumps({k: v for k, v in row.items() if k != "unit"}, sort_keys=True)
        for row in rows
    )
    launches: collections.Counter = collections.Counter()
    warp = 0
    dram = 0.0
    for row in rows:
        bench = row["bench"]
        launches[bench["api"]] += bench["launches"]
        profile = row.get("profile") or {}
        warp += profile.get("warp_instructions", 0)
        dram += profile.get("dram_bytes", 0.0)
    return {
        "sha256": hashlib.sha256("\n".join(body).encode()).hexdigest(),
        "units": len(rows),
        "sim.launches": sum(launches.values()),
        "sim.launches.cuda": launches["cuda"],
        "sim.launches.opencl": launches["opencl"],
        "sim.warp_instructions": warp,
        "sim.dram_bytes": dram,
    }


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts operations and failures; compares against or records a reference.

    ``expect(key, observed)`` is one checked operation: in record mode
    it stores ``observed`` under ``key``; otherwise it fails when the
    stored value differs.
    """

    def __init__(self, record: bool = False, path: Path = REFERENCE) -> None:
        self.path = Path(path)
        self.record = record
        self.reference: dict = {}
        if not record:
            self.reference = json.loads(self.path.read_text())["expected"]
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def expect(self, key: str, observed) -> bool:
        if self.record:
            self.reference[key] = observed
            return self.op(True, key)
        expected = self.reference.get(key)
        if expected == observed:
            return self.op(True, key)
        if isinstance(expected, dict) and isinstance(observed, dict):
            diff = sorted(
                k for k in set(expected) | set(observed)
                if expected.get(k) != observed.get(k)
            )
            return self.op(False, f"{key}: differs in {', '.join(diff)}")
        return self.op(False, f"{key}: expected {expected!r}, got {observed!r}")

    def save(self, provenance: dict) -> None:
        doc = {"provenance": provenance, "expected": self.reference}
        self.path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    @property
    def correct(self) -> bool:
        return self.failed == 0
