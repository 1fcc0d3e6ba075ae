import pytest


def test_benchsuite_cli_runs(capsys):
    from repro.benchsuite.__main__ import main

    rc = main(["TranP", "--device", "GTX480", "--api", "both", "--size", "small"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TranP" in out and "cuda" in out and "opencl" in out


def test_benchsuite_cli_downgrades_cuda_on_amd(capsys):
    from repro.benchsuite.__main__ import main

    rc = main(["TranP", "--device", "HD5870", "--api", "both", "--size", "small"])
    out = capsys.readouterr().out
    assert "OpenCL only" in out
    assert rc == 0


def test_benchsuite_cli_reports_failures(capsys):
    from repro.benchsuite.__main__ import main

    rc = main(["RdxS", "--device", "HD5870", "--api", "opencl", "--size", "small"])
    out = capsys.readouterr().out
    assert "FL" in out
    assert rc == 1


def test_experiments_cli_main(capsys):
    from repro.experiments.runner import main

    rc = main(["table5", "--size", "small"])
    out = capsys.readouterr().out
    assert rc == 0 and "table5" in out


def test_paperdoc_generates_markdown(tmp_path):
    from repro.experiments.paperdoc import generate

    text = generate(size="small", names=["table5"])
    assert "# EXPERIMENTS" in text
    assert "table5" in text
    assert "| shape check | paper | measured | holds |" in text


def test_paperdoc_honours_telemetry_flags_and_has_no_lifecycle(tmp_path, capsys):
    import json

    from repro.experiments.paperdoc import main

    trace = tmp_path / "trace.json"
    base = ["--size", "small", "--only", "fig6", "-o", str(tmp_path / "E.md")]
    rc = main(base + [
        "--cache-dir", str(tmp_path / "cache"), "--trace", str(trace),
        "--manifest", str(tmp_path / "manifest.json"),
    ])
    assert rc == 0
    names = {e.get("name") for e in json.loads(trace.read_text())["traceEvents"]}
    assert "sweep.prewarm" in names
    assert (tmp_path / "manifest.json").exists()
    # it opens no journal, so it offers no --resume/--grace to ignore
    with pytest.raises(SystemExit) as exc:
        main(base + ["--resume"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err


def _fake_experiment(holds, sizes=None, size="small"):
    """A minimal experiment module whose single check we control."""
    import types

    from repro.experiments.report import ExperimentResult

    def run(size=size):
        res = ExperimentResult(
            experiment="fake", title="synthetic", columns=["x"], rows=[{"x": 1}],
            size=size,
        )
        res.check("synthetic check", paper=1, measured=2, holds=holds, sizes=sizes)
        return res

    return types.SimpleNamespace(run=run)


def test_experiments_cli_exits_nonzero_on_failed_check(monkeypatch, capsys):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import main

    monkeypatch.setitem(EXPERIMENTS, "fake", _fake_experiment(holds=False))
    rc = main(["fake", "--size", "small", "--no-cache"])
    cap = capsys.readouterr()
    assert rc == 1
    assert "[MISS]" in cap.out
    assert "1 shape check(s) did not hold" in cap.err


def test_experiments_cli_skips_checks_invalid_at_size(monkeypatch, capsys):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import main

    # the check would fail, but it is only valid at the default size
    monkeypatch.setitem(
        EXPERIMENTS, "fake", _fake_experiment(holds=False, sizes=("default",))
    )
    rc = main(["fake", "--size", "small", "--no-cache"])
    cap = capsys.readouterr()
    assert rc == 0
    assert "[SKIP] synthetic check" in cap.out
    assert "(not valid at size=small)" in cap.out


def test_experiments_cli_size_checks_live_at_valid_size(monkeypatch, capsys):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import main

    # same size-tagged check fails for real when run at a valid size
    monkeypatch.setitem(
        EXPERIMENTS, "fake",
        _fake_experiment(holds=False, sizes=("default",), size="default"),
    )
    rc = main(["fake", "--size", "default", "--no-cache"])
    cap = capsys.readouterr()
    assert rc == 1
    assert "[MISS]" in cap.out


def test_experiments_cli_rejects_unknown_name():
    import pytest as _pytest

    from repro.experiments.runner import main

    with _pytest.raises(SystemExit, match="unknown experiment"):
        main(["nonesuch", "--size", "small"])


def _fault_raising_experiment(injected):
    """An experiment module whose run() hits a failed work unit."""
    import types

    from repro.errors import FailureKind, UnitFailed

    def run(size="small"):
        raise UnitFailed(
            "Fake/cuda@GTX480[small]", FailureKind.ERROR, "boom",
            injected=injected,
        )

    return types.SimpleNamespace(run=run)


def test_experiments_cli_skips_experiment_aborted_by_injected_fault(
    monkeypatch, capsys
):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import main

    monkeypatch.setitem(EXPERIMENTS, "fake", _fault_raising_experiment(True))
    rc = main(["fake", "--size", "small", "--no-cache"])
    cap = capsys.readouterr()
    # injected (chaos-harness) failures are expected: report, exit clean
    assert rc == 0
    assert "aborted by failed work unit [injected]" in cap.err


def test_experiments_cli_nonzero_on_unexpected_unit_failure(
    monkeypatch, capsys
):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import main

    monkeypatch.setitem(EXPERIMENTS, "fake", _fault_raising_experiment(False))
    rc = main(["fake", "--size", "small", "--no-cache"])
    cap = capsys.readouterr()
    assert rc == 1
    assert "aborted by failed work unit" in cap.err
    assert "non-injected unit failure" in cap.err


def test_experiments_cli_accepts_timeout_and_retries(capsys):
    from repro.experiments.runner import main

    rc = main(
        ["table5", "--size", "small", "--no-cache", "--timeout", "600",
         "--retries", "1"]
    )
    assert rc == 0
    assert "table5" in capsys.readouterr().out


def test_benchsuite_cli_reports_engine_failures(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "raise:TranP/cuda@GTX480[small]")
    from repro.benchsuite.__main__ import main

    rc = main(
        ["TranP", "--device", "GTX480", "--api", "both", "--size", "small",
         "--no-cache"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "ERROR" in out  # the failed unit's row
    assert "opencl" in out  # the other unit still ran
    assert "failed units: 1" in out


def test_fig1_small_is_clean_smoke_run(capsys):
    from repro.experiments.runner import main

    rc = main(["fig1", "--size", "small", "--no-cache"])
    cap = capsys.readouterr()
    assert rc == 0
    # the %-of-theoretical-peak checks are expected misses at the reduced
    # working set and must render as SKIP, not count as failures
    assert "[SKIP]" in cap.out
    assert "[MISS]" not in cap.out
    assert "did not hold" not in cap.err
