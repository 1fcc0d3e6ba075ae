"""The sweep CLIs' command-line surface, pinned.

Each CLI's option set, as ``--help`` prints it, is pinned: the CLIs
take their flags from shared helpers (:mod:`repro.exec.lifecycle`),
which may reorder the help but must not add or drop an option.
``repro.benchsuite`` and ``repro.serve submit`` share one benchmark
selection, so the same selection arguments must name the same units,
digest for digest.
"""
import re

import pytest

from repro.exec import SweepExecutor, unit_digest
from repro.exec.unit import unit_from_dict

ENGINE = ["--cache-dir", "--jobs", "--no-cache", "--retries", "--timeout"]
TELEMETRY = ["--events", "--manifest", "--no-manifest", "--progress",
             "--quiet", "--trace", "--verbose"]
HELP = ["--help", "-h"]

SURFACE = {
    "repro.experiments": ENGINE + TELEMETRY + HELP + [
        "--grace", "--resume", "--size", "--sweep-json", "--sweep-report",
    ],
    "repro.benchsuite": ENGINE + TELEMETRY + HELP + [
        "--all", "--api", "--check-variants", "--device", "--grace",
        "--results-json", "--resume", "--size", "--variant-manifest",
        "--variants",
    ],
    "repro.experiments.paperdoc": ENGINE + TELEMETRY + HELP + [
        "--only", "--output", "--size", "--sweep-json", "--sweep-report",
        "-o",
    ],
    "repro.serve submit": HELP + [
        "--all", "--api", "--cache-dir", "--device", "--results-json",
        "--size", "--tenant", "--wait",
    ],
}


def _main(cli):
    if cli == "repro.experiments":
        from repro.experiments.runner import main
    elif cli == "repro.benchsuite":
        from repro.benchsuite.__main__ import main
    elif cli == "repro.experiments.paperdoc":
        from repro.experiments.paperdoc import main
    else:
        from repro.serve.__main__ import main

        return lambda argv: main(["submit", *argv])
    return main


def help_options(text: str) -> list:
    """Every option string the help's option lines declare."""
    out = set()
    for line in text.splitlines():
        if re.match(r"^  -", line):
            head = re.split(r"\s{2,}", line.strip())[0]
            out.update(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", head))
    return sorted(out)


@pytest.mark.parametrize("cli", sorted(SURFACE))
def test_option_set_pinned(cli, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(cli)(["--help"])
    assert exc.value.code == 0
    assert help_options(capsys.readouterr().out) == sorted(SURFACE[cli])


class _Stop(Exception):
    pass


def benchsuite_units(argv, monkeypatch) -> list:
    """The units ``repro.benchsuite`` would run, stopped before any runs."""
    from repro.benchsuite.__main__ import main

    seen = []

    def prewarm(self, units):
        seen.extend(units)
        raise _Stop

    monkeypatch.setattr(SweepExecutor, "prewarm", prewarm)
    with pytest.raises(_Stop):
        main([*argv, "--no-cache", "--no-manifest", "--progress", "off"])
    return seen


def submitted_units(argv, monkeypatch) -> list:
    """The unit dicts ``repro.serve submit`` would send to a daemon."""
    from repro.serve import __main__ as serve_main

    sent = []

    class Client:
        def submit(self, tenant, units):
            sent.extend(units)
            return {"ticket": "t-1", "units": len(units), "cached": 0,
                    "deduped": 0}

    monkeypatch.setattr(serve_main, "discover", lambda cache_dir: Client())
    assert serve_main.main(["submit", *argv]) == 0
    return sent


@pytest.mark.parametrize("selection, opencl_only", [
    (["TranP", "Sobel", "--device", "GTX480", "--size", "small"], False),
    (["--all", "--device", "HD5870", "--api", "both", "--size", "small"], True),
    (["MD", "--device", "Cell/BE", "--api", "cuda"], True),
    (["FFT", "BFS", "--device", "GTX280", "--api", "opencl"], False),
])
def test_benchsuite_and_submit_select_the_same_units(
    selection, opencl_only, monkeypatch, capsys
):
    ran = benchsuite_units(selection, monkeypatch)
    ran_out = capsys.readouterr().out
    sent = submitted_units(selection, monkeypatch)
    sent_out = capsys.readouterr().out
    assert ran, "the selection named no units"
    assert [unit_digest(unit_from_dict(d)) for d in sent] == [
        unit_digest(u) for u in ran
    ]
    if opencl_only:
        # a device without CUDA: both commands narrow to OpenCL and say so
        assert {u.api for u in ran} == {"opencl"}
        for out in (ran_out, sent_out):
            assert "not CUDA-capable" in out and "OpenCL only" in out
