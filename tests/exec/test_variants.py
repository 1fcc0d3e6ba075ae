"""The exec-layer variant harness: units, digests, manifest, gating."""
import json
from types import SimpleNamespace

import pytest

from repro import exec as rexec
from repro.arch import GTX480
from repro.errors import FailureKind, UnitFailed
from repro.exec import variants as rvariants
from repro.exec.unit import unit_digest


@pytest.fixture(scope="module")
def sobel_unit():
    return rexec.make_unit("Sobel", "cuda", GTX480, "small")


def test_with_variant_rides_in_options(sobel_unit):
    vu = rvariants.with_variant(sobel_unit, "sobel!promote:filt")
    assert dict(vu.options)["rewrite"] == "sobel!promote:filt"
    assert vu.benchmark == sobel_unit.benchmark and vu.device == sobel_unit.device


def test_variant_units_have_distinct_digests(sobel_unit):
    tokens = rvariants.variants_for_unit(sobel_unit)
    assert tokens and len(tokens) == len(set(tokens))
    digests = {unit_digest(sobel_unit)}
    for tok in tokens[:3]:
        digests.add(unit_digest(rvariants.with_variant(sobel_unit, tok)))
    # baseline + each sampled variant fingerprint differently: the token
    # is one of the unit's options
    assert len(digests) == 4


def test_violation_flag_only_for_different(sobel_unit):
    mk = lambda s: rvariants.VariantCheck(sobel_unit, "t!cse:body", s)
    assert mk("different").violation
    assert not any(mk(s).violation for s in ("preserved", "inadmissible", "failed"))


def test_manifest_is_deterministic_and_counts_violations(sobel_unit):
    checks = [
        rvariants.VariantCheck(sobel_unit, "sobel!cse:body", "preserved", digest="d1"),
        rvariants.VariantCheck(sobel_unit, "sobel!promote:filt", "different", note="x"),
    ]
    doc = rvariants.variant_manifest(checks)
    assert doc == rvariants.variant_manifest(list(reversed(checks)))
    parsed = json.loads(doc)
    assert parsed["total"] == 2 and parsed["violations"] == 1
    assert [r["variant"] for r in parsed["checks"]] == [
        "sobel!cse:body",
        "sobel!promote:filt",
    ]
    assert doc.endswith("\n")


def test_preflight_gate_reports_inadmissible(monkeypatch, sweep_executor, sobel_unit):
    monkeypatch.setattr(
        rvariants,
        "preflight_unit",
        lambda u: SimpleNamespace(would_abt=True, code="CL_OUT_OF_RESOURCES"),
    )
    checks = rvariants.check_unit_variants(
        sweep_executor, sobel_unit, tokens=["sobel!cse:body"]
    )
    assert [c.status for c in checks] == ["inadmissible"]
    assert checks[0].note == "CL_OUT_OF_RESOURCES"


def test_engine_failure_surfaces_as_failed_check(sweep_executor, sobel_unit):
    class Boom:
        def run_unit(self, unit):
            if dict(unit.options).get("rewrite"):
                raise UnitFailed("x", FailureKind.TIMEOUT)
            return sweep_executor.run_unit(unit)

    checks = rvariants.check_unit_variants(
        Boom(), sobel_unit, tokens=["sobel!cse:body"]
    )
    assert [c.status for c in checks] == ["failed"]
    assert checks[0].note == "TIMEOUT"


def test_bad_token_surfaces_as_failed_not_preserved(sweep_executor, sobel_unit):
    # a token naming a nonexistent site dies in the engine (RewriteError
    # during kernel build); the check must report that, never "preserved"
    checks = rvariants.check_unit_variants(
        sweep_executor, sobel_unit, tokens=["sobel!promote:ghost"]
    )
    assert [c.status for c in checks] == ["failed"]
