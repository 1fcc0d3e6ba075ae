"""One dispatch core, two front ends: the same fault plan, the same outcome.

The sweep engine's prewarm, in process (jobs 1) and on forked workers
(jobs 2), and a daemon ticket run one unit list under one fault plan.
Each unit must end the same way on all three — done, or failed with the
same kind and the same injected attribution — and the survivors'
canonical results must be byte-identical to each other and to a
fault-free run.
"""
from repro import exec as rexec
from repro.arch.specs import GTX480
from repro.exec.cache import canonical_results_json
from repro.exec.unit import unit_to_dict
from repro.serve.daemon import SweepDaemon

UNITS = [
    rexec.make_unit(bench, api, GTX480, "small")
    for bench in ("TranP", "Sobel", "Reduce")
    for api in ("cuda", "opencl")
]
LABELS = [u.label() for u in UNITS]
PLAN = ";".join([
    f"raise:{LABELS[0]}",
    f"kill:{LABELS[1]}",
    f"hang:{LABELS[2]}:1:1:60",
    f"transient:{LABELS[3]}:1.0:1",
    f"postkill:{LABELS[4]}",
])  # LABELS[5] is a bystander
TIMEOUT = 3.0


def _engine_run(tmp_path, jobs):
    """Outcome per label, canonical survivor bytes, unexpected failures."""
    ex = rexec.SweepExecutor(
        jobs=jobs, cache=tmp_path / f"engine-{jobs}", faults=PLAN,
        timeout=TIMEOUT, backoff=0.01, progress="off",
    )
    ex.prewarm(UNITS)
    fails = {f.label: (f.kind, f.injected) for f in ex.stats.failures}
    outcome = {label: fails.get(label, ("done", False)) for label in LABELS}
    survivors = [u for u in UNITS if u.label() not in fails]
    doc = canonical_results_json([ex.run_unit(u) for u in survivors])
    return outcome, doc, ex.stats.unexpected_failures()


def test_engine_and_daemon_agree_under_one_fault_plan(tmp_path):
    # jobs 1 runs the engine's queue on the calling thread, jobs 2 on
    # forked workers: the same plan must end the same way on each
    in_process, in_process_doc, in_process_unexpected = _engine_run(tmp_path, 1)
    engine, engine_doc, engine_unexpected = _engine_run(tmp_path, 2)
    survivors = [u for u in UNITS if engine[u.label()][0] == "done"]

    d = SweepDaemon(
        tmp_path / "daemon", jobs=2, faults=PLAN, timeout=TIMEOUT,
        backoff=0.01, hb_interval=0.3,
    ).start()
    try:
        out = d.submit("alice", [unit_to_dict(u) for u in UNITS])
        assert d.wait_ticket(out["ticket"], 300)
        rows = d.ticket_status(out["ticket"])["rows"]
        daemon_doc = d.ticket_results_json(out["ticket"])
    finally:
        summary = d.stop(grace=30)
    daemon = {
        r["label"]: ("done", False) if r["state"] == "done"
        else (r["kind"], r["injected"])
        for r in rows
    }

    assert in_process == engine == daemon == {
        LABELS[0]: ("ERROR", True),
        LABELS[1]: ("CRASH", True),
        LABELS[2]: ("TIMEOUT", True),
        LABELS[3]: ("done", False),
        LABELS[4]: ("done", False),
        LABELS[5]: ("done", False),
    }
    assert in_process_unexpected == engine_unexpected == []
    assert summary["exit_code"] == 0
    reference = rexec.SweepExecutor(faults="")
    fault_free = canonical_results_json([reference.run_unit(u) for u in survivors])
    assert in_process_doc == engine_doc == daemon_doc == fault_free
