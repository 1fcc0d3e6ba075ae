"""Golden files: byte-stable ``repro.obs`` output for pinned journals.

``--once`` output must depend only on journal bytes — every timestamp
in these fixtures is pinned, so the rendered status blocks are pinned
too.  A golden diff is a deliberate change to what operators see:
regenerate with

    REPRO_REGOLD=1 python -m pytest tests/obs/test_status_golden.py

and review the diff like any other source change.
"""
import json
import os
import pathlib

from repro.obs.__main__ import main as obs_main
from repro.obs import openmetrics as om

from .test_openmetrics import sample_snapshot
from .test_registry import demo_journal, write_lines

GOLDEN = pathlib.Path(__file__).parent / "golden"


def check_golden(name, got):
    path = GOLDEN / name
    if os.environ.get("REPRO_REGOLD"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(got)
    assert path.exists(), f"golden file {name} missing; REPRO_REGOLD=1"
    assert got == path.read_text(), (
        f"{name} changed; if intended, regenerate with REPRO_REGOLD=1 "
        "and review the diff"
    )


def test_status_once_running(tmp_path, capsys):
    demo_journal(tmp_path, hb_unix=1005.0)
    assert obs_main(
        ["status", "demo", "--once", "--cache-dir", str(tmp_path)]
    ) == 0
    check_golden("status_running.txt", capsys.readouterr().out)


def test_status_once_complete(tmp_path, capsys):
    demo_journal(tmp_path, hb_unix=1005.0, close="complete")
    assert obs_main(
        ["status", "demo", "--once", "--cache-dir", str(tmp_path)]
    ) == 0
    check_golden("status_complete.txt", capsys.readouterr().out)


def test_watch_once_matches_status_once(tmp_path, capsys):
    demo_journal(tmp_path, hb_unix=1005.0)
    assert obs_main(
        ["watch", "--latest", "--once", "--cache-dir", str(tmp_path)]
    ) == 0
    check_golden("status_running.txt", capsys.readouterr().out)


def test_status_once_stale_run(tmp_path, capsys):
    # a crashed run: running state, no heartbeat for a long time; the
    # once-snapshot pins now to the last record, so the view is of a
    # *later* observation stamped into the journal by a final hb gap
    path = demo_journal(tmp_path, hb_unix=1005.0)
    write_lines(path, [{"t": "hb", "unix": 1006.0, "pid": 4242,
                        "interval": 0.01, "done": 1, "failed": 1}])
    assert obs_main(
        ["status", "demo", "--once", "--cache-dir", str(tmp_path)]
    ) == 0
    # interval 0.01 but hb age is 0 in --once mode: still live; the
    # stale path needs wall time and is covered in test_registry
    check_golden("status_tiny_interval.txt", capsys.readouterr().out)


def test_ls_table(tmp_path, capsys):
    demo_journal(tmp_path, run_id="run-b", hb_unix=1005.0)
    demo_journal(tmp_path, run_id="run-a", close="complete")
    assert obs_main(["ls", "--cache-dir", str(tmp_path)]) == 0
    check_golden("ls.txt", capsys.readouterr().out)


def test_openmetrics_textfile():
    check_golden(
        "metrics.prom", om.render(sample_snapshot(), run_id="demo")
    )
    assert om.lint(om.render(sample_snapshot(), run_id="demo")) == []


# -- daemon post-mortems ----------------------------------------------------
SERVE_UNIT = {"benchmark": "Sobel", "api": "cuda", "device": "GTX480",
              "size": "small", "options": []}


def serve_wal(tmp_path, tail, beat=True):
    """A daemon's WAL: unit aaa done, unit bbb leased, then ``tail``."""
    recs = [
        {"t": "boot", "schema": 1, "epoch": 1, "pid": 4242, "jobs": 2,
         "unix": 1000.0},
    ]
    for i, d in enumerate(("aaa", "bbb")):
        recs.append({"t": "submit", "ticket": "t-1", "tenant": "alice",
                     "d": d, "label": f"unit-{d}", "unit": SERVE_UNIT,
                     "unix": 1001.0 + i})
    recs += [
        {"t": "lease", "d": "aaa", "label": "unit-aaa", "attempt": 1,
         "token": 1, "unix": 1003.0},
        {"t": "done", "d": "aaa", "source": "run", "token": 1,
         "unix": 1004.0},
        {"t": "lease", "d": "bbb", "label": "unit-bbb", "attempt": 1,
         "token": 2, "unix": 1005.0},
    ]
    if beat:
        recs.append({"t": "hb", "pid": 4242, "interval": 1.0, "queued": 0,
                     "leased": 1, "done": 1, "failed": 0, "unix": 1006.0})
    write_lines(tmp_path / "serve" / "queue.jsonl", recs + tail)


def check_serve_golden(name, tmp_path, monkeypatch, now):
    from repro.obs.registry import serve_status
    from repro.obs.render import render_serve

    monkeypatch.chdir(tmp_path)  # a relative WAL path renders stably
    check_golden(name, render_serve(serve_status(".", now=now)) + "\n")


def test_serve_stopped(tmp_path, monkeypatch):
    serve_wal(tmp_path, [
        {"t": "drain", "unix": 1007.0},
        {"t": "done", "d": "bbb", "source": "run", "token": 2,
         "unix": 1008.0},
        {"t": "state", "state": "stopped", "unix": 1009.0},
    ])
    check_serve_golden("serve_stopped.txt", tmp_path, monkeypatch, 5000.0)


def test_serve_interrupted(tmp_path, monkeypatch):
    serve_wal(tmp_path, [
        {"t": "drain", "unix": 1007.0},
        {"t": "requeue", "d": "bbb", "reason": "drain-killed", "token": 2,
         "unix": 1008.0},
        {"t": "state", "state": "interrupted", "unix": 1009.0},
    ])
    check_serve_golden("serve_interrupted.txt", tmp_path, monkeypatch, 5000.0)


def test_serve_killed_with_stale_heartbeat(tmp_path, monkeypatch):
    serve_wal(tmp_path, [])
    check_serve_golden("serve_killed_stale.txt", tmp_path, monkeypatch, 5000.0)


def test_serve_killed_before_first_beat(tmp_path, monkeypatch):
    # no beat to age: the age of the last record takes the verdict
    serve_wal(tmp_path, [], beat=False)
    check_serve_golden(
        "serve_killed_before_beat.txt", tmp_path, monkeypatch, 5000.0
    )


def test_serve_never_ran(tmp_path, monkeypatch, capsys):
    # no WAL: no daemon ever ran here, so it is neither dead nor running
    check_serve_golden("serve_never_ran.txt", tmp_path, monkeypatch, 5000.0)
    from repro.serve.__main__ import main as serve_main

    assert serve_main(["status", "--json", "--cache-dir", "."]) == 0
    assert json.loads(capsys.readouterr().out)["state"] == "never-ran"
