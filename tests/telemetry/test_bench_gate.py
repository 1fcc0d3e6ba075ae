"""The repro.bench regression gate: compare logic + CLI exit codes."""
import copy
import json

import pytest

from repro import bench
from repro.bench.__main__ import main as bench_main


def _payload(**overrides):
    values = {
        "units.total": 4.0,
        "sim.launches": 8.0,
        "sim.kernel_seconds": 1e-3,
    }
    values.update(overrides)
    return bench.make_payload(values, tag="t", size="small", jobs=1)


class TestCompare:
    def test_identical_runs_pass(self):
        base = _payload()
        rows = bench.compare(copy.deepcopy(base), base)
        assert not bench.regressions(rows)
        assert {r["status"] for r in rows} == {"ok"}

    def test_drift_beyond_tolerance_regresses_both_directions(self):
        base = _payload()
        for direction in (+1.0, -1.0):
            cur = _payload(**{"sim.launches": 8.0 + direction})
            rows = bench.compare(cur, base)
            bad = bench.regressions(rows)
            assert [r["metric"] for r in bad] == ["sim.launches"]

    def test_missing_metric_fails_the_gate(self):
        base = _payload()
        cur = _payload()
        del cur["metrics"]["sim.launches"]
        rows = bench.compare(cur, base)
        assert [r["metric"] for r in bench.regressions(rows)] == [
            "sim.launches"
        ]
        assert bench.regressions(rows)[0]["status"] == "missing"

    def test_within_tolerance_passes(self):
        base = _payload()
        cur = _payload(**{"sim.kernel_seconds": 1e-3 * 1.005})
        rows = bench.compare(cur, base)
        assert not bench.regressions(rows)

    def test_render_report_lists_every_metric(self):
        rows = bench.compare(_payload(), _payload())
        text = bench.render_report(rows, tag="unit")
        assert "0 regression(s)" in text
        for name in ("units.total", "sim.launches", "sim.kernel_seconds"):
            assert name in text


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        p = bench.write_bench(_payload(), tmp_path / "BENCH_t.json")
        back = bench.load_bench(p)
        assert back["metrics"]["sim.launches"]["value"] == 8.0
        assert back["schema"] == bench.SCHEMA_VERSION

    def test_load_rejects_wrong_schema(self, tmp_path):
        doc = _payload()
        doc["schema"] = 999
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            bench.load_bench(p)


@pytest.fixture(scope="module")
def fig1_bench(tmp_path_factory):
    """One real (tiny) bench run shared by the CLI exit-code tests."""
    d = tmp_path_factory.mktemp("bench")
    base = d / "baseline.json"
    out = d / "BENCH_t.json"
    rc = bench_main(
        ["--experiments", "fig1", "--tag", "t", "--quiet",
         "--baseline", str(base), "--output", str(out),
         "--update-baseline"]
    )
    assert rc == 0
    return d, base, out


class TestCLI:
    def test_exit_zero_on_matching_baseline(self, fig1_bench, capsys):
        d, base, out = fig1_bench
        rc = bench_main(
            ["--compare", str(out), "--baseline", str(base), "--quiet"]
        )
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_exit_one_on_seeded_regression(self, fig1_bench, capsys):
        d, base, out = fig1_bench
        doc = json.loads(base.read_text())
        doc["metrics"]["sim.launches"]["value"] += 3
        doctored = d / "doctored.json"
        doctored.write_text(json.dumps(doc))
        rc = bench_main(
            ["--compare", str(out), "--baseline", str(doctored), "--quiet"]
        )
        assert rc == 1
        assert "regression" in capsys.readouterr().out

    def test_exit_two_without_baseline(self, fig1_bench, tmp_path, capsys):
        d, base, out = fig1_bench
        rc = bench_main(
            ["--compare", str(out), "--quiet",
             "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 2

    def test_real_run_is_deterministic_vs_its_own_baseline(
        self, fig1_bench, tmp_path
    ):
        """A second cold run of the same sweep gates green against the
        first — the committed-baseline workflow, in miniature."""
        d, base, out = fig1_bench
        rc = bench_main(
            ["--experiments", "fig1", "--tag", "t2", "--quiet",
             "--baseline", str(base),
             "--output", str(tmp_path / "BENCH_t2.json")]
        )
        assert rc == 0


def test_jobs_do_not_move_the_gate():
    """A two-worker run gates green against a one-worker run: counts are
    equal and the float sums differ by summation order only.  The three
    experiments launch through both the CUDA and the OpenCL runtime."""
    one, two = (
        bench.make_payload(
            bench.run_bench(jobs=j, experiments=["fig1", "fig8", "table6"]),
            tag=f"j{j}", size="small", jobs=j,
        )
        for j in (1, 2)
    )
    assert one["metrics"]["launch.cuda.count"]["value"] > 0
    assert one["metrics"]["launch.opencl.count"]["value"] > 0
    assert not bench.regressions(bench.compare(two, one))
    assert not bench.regressions(bench.compare(one, two))


def test_committed_baseline_shape():
    """The committed baseline gates exactly the metrics a run emits, each
    with a tolerance: a metric the baseline lacks would go ungated, since
    ``compare`` walks the baseline's metrics only."""
    doc = bench.load_bench(bench.default_baseline_path())
    assert doc["size"] == "small"
    assert set(doc["metrics"]) == set(bench.DEFAULT_TOLERANCES)
    assert all(m["tolerance"] is not None for m in doc["metrics"].values())
    assert all(t is not None for t in bench.DEFAULT_TOLERANCES.values())
