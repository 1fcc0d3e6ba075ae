import math

import numpy as np
import pytest

from repro.arch import GTX280, GTX480
from repro.benchsuite.base import BenchResult, Metric
from repro.core import (
    ComparisonConfig,
    Role,
    SIMILARITY_BAND,
    Step,
    STEP_ROLES,
    audit,
    autotune,
    compare,
    is_fair,
    performance_ratio,
    similar,
)
from repro.core.fairness import describe
from repro.core.metrics import PRResult


class TestPerformanceRatio:
    def test_higher_is_better(self):
        m = Metric("GFlops/sec")
        assert performance_ratio(50, 100, m) == pytest.approx(0.5)
        assert performance_ratio(100, 100, m) == pytest.approx(1.0)

    def test_time_metric_inverts(self):
        m = Metric("sec", higher_is_better=False)
        # OpenCL takes twice as long -> PR = 0.5
        assert performance_ratio(2.0, 1.0, m) == pytest.approx(0.5)

    def test_similarity_band(self):
        assert similar(1.0)
        assert similar(0.95) and similar(1.05)
        assert not similar(0.89) and not similar(1.11)
        assert SIMILARITY_BAND == 0.1  # the paper's |1 - PR| < 0.1

    def test_zero_cuda_rejected(self):
        with pytest.raises(ValueError):
            performance_ratio(1.0, 0.0, Metric("GB/sec"))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            performance_ratio(0.0, 1.0, Metric("sec", higher_is_better=False))


def _res(api, value, correct=True, failure=None):
    return BenchResult(
        benchmark="X",
        api=api,
        device="GTX480",
        value=value,
        unit="GB/sec",
        kernel_seconds=1e-6,
        wall_seconds=1e-6,
        launches=1,
        correct=correct,
        failure=failure,
    )


class TestPRResult:
    def test_verdicts(self):
        m = Metric("GB/sec")
        pr = PRResult.from_pair(_res("cuda", 100), _res("opencl", 100), m)
        assert pr.verdict == "similar"
        pr = PRResult.from_pair(_res("cuda", 100), _res("opencl", 50), m)
        assert pr.verdict == "OpenCL slower"
        pr = PRResult.from_pair(_res("cuda", 50), _res("opencl", 100), m)
        assert pr.verdict == "OpenCL faster"

    def test_failed_run_gives_nan(self):
        m = Metric("GB/sec")
        pr = PRResult.from_pair(
            _res("cuda", 100), _res("opencl", float("nan"), correct=False, failure="ABT"), m
        )
        assert math.isnan(pr.pr) and pr.verdict == "n/a"

    def test_mismatched_pair_rejected(self):
        m = Metric("GB/sec")
        a = _res("cuda", 1)
        b = _res("opencl", 1)
        b.benchmark = "Y"
        with pytest.raises(ValueError):
            PRResult.from_pair(a, b, m)


class TestFairness:
    def _cfg(self, **over):
        base = dict(
            problem="P",
            algorithm="A",
            implementation="I",
            native_optimizations=(("use_texture", "True"),),
            first_stage_compiler="nvopencc",
            second_stage_compiler="ptxas",
            problem_parameters=(("n", "1024"),),
            algorithmic_parameters=(("wg", "256"),),
            device="GTX480",
        )
        base.update(over)
        return ComparisonConfig(**base)

    def test_identical_configs_fair(self):
        assert audit(self._cfg(), self._cfg()) == []
        assert is_fair(self._cfg(), self._cfg())

    def test_step4_difference_flagged_as_programmer(self):
        findings = audit(
            self._cfg(), self._cfg(native_optimizations=(("use_texture", "False"),))
        )
        assert len(findings) == 1
        assert findings[0].step is Step.NATIVE_KERNEL_OPTIMIZATIONS
        assert findings[0].role is Role.PROGRAMMER

    def test_compiler_steps_exempt_by_default(self):
        left = self._cfg()
        right = self._cfg(first_stage_compiler="clc")
        assert is_fair(left, right)  # compilers differ by construction
        assert not is_fair(left, right, allow_compiler_steps=False)

    def test_role_assignment_matches_fig9(self):
        assert STEP_ROLES[Step.PROBLEM_DESCRIPTION] is Role.PROGRAMMER
        assert STEP_ROLES[Step.NATIVE_KERNEL_OPTIMIZATIONS] is Role.PROGRAMMER
        assert STEP_ROLES[Step.FIRST_STAGE_COMPILATION] is Role.COMPILER
        assert STEP_ROLES[Step.SECOND_STAGE_COMPILATION] is Role.COMPILER
        assert STEP_ROLES[Step.PROGRAM_CONFIGURATION] is Role.USER
        assert STEP_ROLES[Step.RUNNING_ON_GPUS] is Role.USER

    def test_eight_steps(self):
        assert len(Step) == 8
        assert [int(s) for s in Step] == list(range(1, 9))

    def test_describe_derives_compiler_from_api(self):
        c = describe("B", "cuda", "GTX480", {}, {}, 256)
        o = describe("B", "opencl", "GTX480", {}, {}, 256)
        assert c.first_stage_compiler == "nvopencc"
        assert o.first_stage_compiler == "clc"


class TestCompare:
    def test_sobel_comparison_unfair_as_shipped(self):
        out = compare("Sobel", GTX480, size="small")
        assert not out.fair  # asymmetric constant-memory use (step 4)
        steps = {f.step for f in out.fairness}
        assert Step.NATIVE_KERNEL_OPTIMIZATIONS in steps

    def test_sobel_fair_after_equalizing(self):
        out = compare(
            "Sobel",
            GTX480,
            size="small",
            cuda_options={"use_constant": True},
        )
        assert out.fair

    def test_comparison_carries_both_results(self):
        out = compare("TranP", GTX480, size="small")
        assert out.pr.cuda.api == "cuda" and out.pr.opencl.api == "opencl"
        assert out.pr.pr > 0


class TestAutotune:
    def test_finds_best_workgroup(self):
        res = autotune(
            "DeviceMemory",
            GTX480,
            axes={"wg": [64, 256]},
            api="opencl",
            size="small",
        )
        assert res.best_options["wg"] in (64, 256)
        assert len(res.trace) == 2
        values = [v for _, v in res.trace if v is not None]
        assert res.best_value == max(values)

    def test_failed_configs_recorded_as_none(self):
        res = autotune(
            "TranP",
            GTX480,
            axes={"use_local": [True, False]},
            api="opencl",
            size="small",
        )
        assert len(res.trace) == 2

    AXES = {"wg": [64, 128, 256]}

    def _tune(self):
        return autotune("DeviceMemory", GTX480, axes=self.AXES, api="opencl")

    def test_candidates_are_served_by_the_engine(self):
        from repro import exec as rexec

        with rexec.use_executor(rexec.SweepExecutor()) as ex:
            first = self._tune()
            misses = ex.stats.misses
            assert misses == 3
            assert self._tune() == first
            assert ex.stats.misses == misses  # the memo served every candidate
        # the caller's spelling, defaults included
        assert [o for o, _ in first.trace] == [{"wg": w} for w in self.AXES["wg"]]

    def test_parallel_matches_serial(self):
        from repro import exec as rexec

        with rexec.use_executor(rexec.SweepExecutor(jobs=1)):
            serial = self._tune()
        with rexec.use_executor(rexec.SweepExecutor(jobs=2)):
            assert self._tune() == serial

    def test_failed_candidate_scores_none(self):
        from repro import exec as rexec

        label = rexec.make_unit(
            "DeviceMemory", "opencl", GTX480, "small", {"wg": 128}
        ).label()
        with rexec.use_executor(rexec.SweepExecutor(faults=f"raise:{label}")) as ex:
            res = self._tune()
        assert dict((o["wg"], v) for o, v in res.trace)[128] is None
        assert [v is None for _, v in res.trace].count(True) == 1
        assert [f.label for f in ex.stats.failures] == [label]
        assert res.best_options["wg"] != 128

    def test_demo_output_matches_golden(self, capsys):
        import runpy
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        runpy.run_path(str(root / "examples" / "autotune_demo.py"), run_name="__main__")
        golden = root / "tests" / "fixtures" / "autotune_demo.txt"
        assert capsys.readouterr().out == golden.read_text()
