"""One dispatch core, two front ends: the same fault plan, the same outcome.

The sweep engine's parallel prewarm and a daemon ticket run one unit
list under one fault plan.  Each unit must end the same way on both —
done, or failed with the same kind and the same injected attribution —
and the survivors' canonical results must be byte-identical to each
other and to a fault-free run.
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


def test_engine_and_daemon_agree_under_one_fault_plan(tmp_path):
    ex = rexec.SweepExecutor(
        jobs=2, cache=tmp_path / "engine", faults=PLAN, timeout=TIMEOUT,
        backoff=0.01, progress="off",
    )
    ex.prewarm(UNITS)
    fails = {f.label: (f.kind, f.injected) for f in ex.stats.failures}
    engine = {label: fails.get(label, ("done", False)) for label in LABELS}
    survivors = [u for u in UNITS if u.label() not in fails]
    engine_doc = canonical_results_json([ex.run_unit(u) for u in survivors])

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

    assert engine == daemon == {
        LABELS[0]: ("ERROR", True),
        LABELS[1]: ("CRASH", True),
        LABELS[2]: ("TIMEOUT", True),
        LABELS[3]: ("done", False),
        LABELS[4]: ("done", False),
        LABELS[5]: ("done", False),
    }
    assert ex.stats.unexpected_failures() == []
    assert summary["exit_code"] == 0
    reference = rexec.SweepExecutor(faults="")
    fault_free = canonical_results_json([reference.run_unit(u) for u in survivors])
    assert engine_doc == daemon_doc == fault_free
