"""Property tests for the sweep cache key (ISSUE 2 satellite).

(a) identical units produce identical digests (insensitive to option
    dict ordering, to repeated construction, and to spelling a default
    option out);
(b) any perturbation of a kernel-shaping option, the model's source, a
    DeviceSpec field, or the launch geometry/config changes the digest;
(c) byte-identity of cached results is covered in test_engine.py.
"""
import dataclasses
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480, device_by_name
from repro.benchsuite.base import Benchmark
from repro.exec import unit as unit_mod
from repro.exec.unit import unit_fingerprint, unit_from_dict, unit_to_dict
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import collect_units

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


def test_kernel_shaping_options_are_part_of_the_key():
    # options that only change the generated kernels still move the digest
    with_c = rexec.make_unit("Sobel", "cuda", GTX280, "small", {"use_constant": True})
    wo_c = rexec.make_unit("Sobel", "cuda", GTX280, "small", {"use_constant": False})
    assert rexec.unit_digest(with_c) != rexec.unit_digest(wo_c)
    with_a = rexec.make_unit("FDTD", "opencl", GTX480, "small", {"unroll_a": 9})
    wo_a = rexec.make_unit("FDTD", "opencl", GTX480, "small", {"unroll_a": None})
    assert rexec.unit_digest(with_a) != rexec.unit_digest(wo_a)


def test_digest_builds_no_kernels(monkeypatch):
    unit = rexec.make_unit("Sobel", "cuda", GTX280, "small", {"use_constant": True})
    base = rexec.unit_digest(unit)

    def boom(*args, **kwargs):
        raise AssertionError("the digest must not build kernels")

    monkeypatch.setattr(Benchmark, "build_kernels", boom)
    assert "kernels" not in unit_fingerprint(unit)
    assert rexec.unit_digest(unit) == base


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
    err = digest_after_flipping("errors.py")
    assert err != sim
    # the code that builds a unit's kernels is keyed here, not by the
    # rendered sources
    app = digest_after_flipping("benchsuite/apps/sobel.py")
    assert app != err
    assert digest_after_flipping("kir/builder.py") != app


def _same_identity(a, b):
    return a == b and a.label() == b.label() and (
        rexec.unit_digest(a) == rexec.unit_digest(b)
    )


def test_default_valued_options_fold_away():
    ocl = rexec.make_unit("FDTD", "opencl", GTX480, "small")
    assert _same_identity(
        ocl, rexec.make_unit("FDTD", "opencl", GTX480, "small", {"unroll_a": None})
    )
    cuda = rexec.make_unit("FDTD", "cuda", GTX480, "small")
    assert _same_identity(
        cuda, rexec.make_unit("FDTD", "cuda", GTX480, "small", {"unroll_a": 9})
    )
    assert cuda.label() == "FDTD/cuda@GTX480[small]"
    # the OpenCL default is not the CUDA default
    no_a = rexec.make_unit("FDTD", "cuda", GTX480, "small", {"unroll_a": None})
    assert no_a.options == (("unroll_a", None),)
    assert rexec.unit_digest(no_a) != rexec.unit_digest(cuda)


def test_default_folding_needs_the_same_type():
    # 1 == True, but a different type is a different spelling of work
    unit = rexec.make_unit("Sobel", "opencl", GTX480, "small", {"use_constant": 1})
    assert unit.options == (("use_constant", 1),)


def test_unknown_keys_and_rewrite_tokens_survive():
    # ``blocks=24`` is Reduce's default, but Sobel has no such option
    unit = rexec.make_unit(
        "Sobel", "cuda", GTX480, "small",
        {"blocks": 24, "rewrite": "sobel!cse:body", "use_constant": False},
    )
    assert unit.options == (("blocks", 24), ("rewrite", "sobel!cse:body"))


def test_unit_dict_round_trip_is_canonical():
    unit = rexec.make_unit("FDTD", "cuda", GTX480, "small", {"unroll_a": None})
    assert unit_from_dict(unit_to_dict(unit)) == unit
    spelled = {"benchmark": "FDTD", "api": "opencl", "device": "GTX480",
               "size": "small", "options": [["unroll_a", None]]}
    assert unit_from_dict(spelled) == rexec.make_unit("FDTD", "opencl", GTX480, "small")
    assert unit_from_dict(dict(spelled, options={"unroll_a": None})).options == ()
    # array-valued options survive JSON as tuples, so the unit stays hashable
    tiled = rexec.make_unit("Sobel", "cuda", GTX480, "small", {"wg": (8, 8)})
    back = unit_from_dict(json.loads(json.dumps(unit_to_dict(tiled))))
    assert back == tiled and hash(back) == hash(tiled)
    assert rexec.make_unit("Sobel", "cuda", GTX480, "small", {"wg": [16, 16]}).options == ()


def test_device_spellings_share_one_unit():
    lower = rexec.make_unit("MD", "cuda", "gtx480", "small")
    assert lower == rexec.make_unit("MD", "cuda", "GTX480", "small")
    assert lower.device == "GTX480"
    assert rexec.unit_digest(lower) == rexec.unit_digest(
        rexec.make_unit("MD", "cuda", "GTX-480", "small")
    )
    assert device_by_name("cell_be") is device_by_name("Cell/BE")
    with pytest.raises(KeyError):
        rexec.make_unit("MD", "cuda", "GTX999", "small")


def test_paper_sweep_units_equal_digests():
    units = set(collect_units(list(EXPERIMENTS), "default"))
    digests = {rexec.unit_digest(u) for u in units}
    assert len(units) == len(digests) == 119
