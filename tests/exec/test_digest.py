"""Property tests for the sweep cache key (ISSUE 2 satellite).

(a) identical units produce identical digests (insensitive to option
    dict ordering and to repeated construction);
(b) any perturbation of the kernel source, a DeviceSpec field, or the
    launch geometry/config changes the digest;
(c) byte-identity of cached results is covered in test_engine.py.
"""
import dataclasses
import shutil

from hypothesis import given, settings, strategies as st

from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480, device_by_name
from repro.exec import unit as unit_mod
from repro.exec.unit import digest_of_fingerprint, unit_fingerprint

BENCHMARKS = ["TranP", "Reduce", "Sobel", "MD"]
DEVICES = ["GTX280", "GTX480"]
APIS = ["cuda", "opencl"]
SIZES = ["small", "default"]

#: option overrides that are valid for every benchmark above (unknown
#: keys pass through options_for untouched, so any pair is usable)
OPTION_POOL = [("use_texture", False), ("use_constant", False), ("wg", 128)]


units_st = st.builds(
    rexec.make_unit,
    st.sampled_from(BENCHMARKS),
    st.sampled_from(APIS),
    st.sampled_from(DEVICES),
    st.sampled_from(SIZES),
    st.dictionaries(
        st.sampled_from([k for k, _ in OPTION_POOL]),
        st.sampled_from([False, True, 64, 128]),
        max_size=2,
    ),
)


@settings(max_examples=30, deadline=None)
@given(units_st)
def test_identical_units_identical_digests(unit):
    assert rexec.unit_digest(unit) == rexec.unit_digest(unit)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(BENCHMARKS),
    st.sampled_from(APIS),
    st.sampled_from(DEVICES),
    st.permutations(OPTION_POOL),
)
def test_digest_insensitive_to_option_ordering(name, api, device, perm):
    a = rexec.make_unit(name, api, device, "small", dict(perm))
    b = rexec.make_unit(name, api, device, "small", dict(OPTION_POOL))
    assert a == b
    assert rexec.unit_digest(a) == rexec.unit_digest(b)


@settings(max_examples=40, deadline=None)
@given(
    units_st,
    st.sampled_from(["api", "size", "device", "benchmark", "option", "version"]),
)
def test_any_config_perturbation_changes_digest(unit, what):
    base = rexec.unit_digest(unit)
    if what == "api":
        other = dataclasses.replace(
            unit, api="opencl" if unit.api == "cuda" else "cuda"
        )
    elif what == "size":
        other = dataclasses.replace(
            unit, size="default" if unit.size == "small" else "small"
        )
    elif what == "device":
        other = dataclasses.replace(
            unit, device="GTX280" if unit.device == "GTX480" else "GTX480"
        )
    elif what == "benchmark":
        pool = [b for b in BENCHMARKS if b != unit.benchmark]
        other = dataclasses.replace(unit, benchmark=pool[0])
    elif what == "option":
        opts = dict(unit.options)
        opts["wg"] = 512 if opts.get("wg") != 512 else 256
        other = dataclasses.replace(
            unit, options=tuple(sorted(opts.items()))
        )
    else:  # version
        assert rexec.unit_digest(unit, version="other") != base
        return
    assert rexec.unit_digest(other) != base


@settings(max_examples=25, deadline=None)
@given(
    units_st,
    st.sampled_from(
        ["warp_width", "compute_units", "core_clock_mhz", "line_bytes", "l2_bytes"]
    ),
)
def test_any_spec_field_perturbation_changes_digest(unit, field):
    spec = device_by_name(unit.device)
    bumped = dataclasses.replace(spec, **{field: getattr(spec, field) + 1})
    assert rexec.unit_digest(unit) != rexec.unit_digest(unit, spec=bumped)


def test_kernel_source_is_part_of_the_key():
    # same benchmark/geometry, option only changes the generated kernel
    with_c = rexec.make_unit("Sobel", "cuda", GTX280, "small", {"use_constant": True})
    wo_c = rexec.make_unit("Sobel", "cuda", GTX280, "small", {"use_constant": False})
    fp_a, fp_b = unit_fingerprint(with_c), unit_fingerprint(wo_c)
    assert fp_a["kernels"] != fp_b["kernels"]
    # and digest is sensitive to the source text alone, all else equal
    mutated = dict(fp_a)
    mutated["kernels"] = [s + "\n// perturbed" for s in fp_a["kernels"]]
    assert digest_of_fingerprint(mutated) != digest_of_fingerprint(fp_a)


def test_timing_calibration_is_part_of_the_key():
    unit = rexec.make_unit("TranP", "cuda", GTX480, "small")
    spec = GTX480
    slower = dataclasses.replace(
        spec, timing=dataclasses.replace(spec.timing, dram_efficiency=0.5)
    )
    assert rexec.unit_digest(unit) != rexec.unit_digest(unit, spec=slower)


def test_model_source_is_part_of_the_key(tmp_path, monkeypatch):
    # a copy of the package stands in for the installed one, so its
    # files can be edited; the digest follows the model packages only
    root = tmp_path / "repro"
    shutil.copytree(
        unit_mod.PACKAGE_ROOT, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(unit_mod, "PACKAGE_ROOT", root)
    unit = rexec.make_unit("TranP", "cuda", GTX480, "small")

    def digest_after_flipping(rel=None):
        if rel is not None:
            path = root / rel
            data = bytearray(path.read_bytes())
            data[0] ^= 1
            path.write_bytes(bytes(data))
        unit_mod.code_digest.cache_clear()
        return rexec.unit_digest(unit)

    base = digest_after_flipping()
    assert base == rexec.unit_digest(unit)  # computed once, then cached
    assert digest_after_flipping("obs/registry.py") == base
    assert digest_after_flipping("serve/daemon.py") == base
    sim = digest_after_flipping("sim/interp.py")
    assert sim != base
    assert digest_after_flipping("errors.py") != sim
