"""Span tracing: nesting, IDs, and propagation across pool workers."""
import collections
import json

from repro import exec as rexec
from repro.arch.specs import GTX280, GTX480
from repro.telemetry import spans as tspans
from repro.telemetry.export import chrome_trace

UNITS = [
    rexec.make_unit("TranP", api, dev, "small")
    for api in ("cuda", "opencl")
    for dev in (GTX280, GTX480)
]


def _spans_by_name(tr):
    out = {}
    for e in tr.events:
        if isinstance(e, tspans.Span):
            out.setdefault(e.name, []).append(e)
    return out


def test_span_nesting_parent_links():
    tr = tspans.Tracer(run_id="t")
    with tspans.use_tracer(tr):
        with tspans.span("outer", "engine") as outer:
            with tspans.span("inner", "unit") as inner:
                assert inner.parent_id == outer.span_id
                tspans.event("mark", "engine", k=1)
        assert outer.parent_id == tr.root.span_id
    tr.finish()
    names = _spans_by_name(tr)
    assert set(names) >= {"outer", "inner", "run"}
    inner = names["inner"][0]
    assert inner.t1 >= inner.t0
    instants = [e for e in tr.events if isinstance(e, tspans.Instant)]
    # the instant fired while "inner" was the open span
    assert instants[0].span_id == names["inner"][0].span_id


def test_span_is_noop_without_tracer():
    with tspans.span("anything") as s:
        assert s is None
    tspans.event("nothing")  # no raise
    assert tspans.current_span_id() is None


def test_traced_decorator():
    tr = tspans.Tracer(run_id="t")

    @tspans.traced("work.step", cat="engine")
    def step():
        return tspans.current_span_id()

    with tspans.use_tracer(tr):
        sid = step()
    tr.finish()
    names = _spans_by_name(tr)
    assert names["work.step"][0].span_id == sid


def test_sibling_spans_close_independently():
    tr = tspans.Tracer(run_id="t")
    with tspans.use_tracer(tr):
        a = tr.start_span("a", "engine")
        b = tr.start_span("b", "engine")
        # out-of-order close: ending the outer span also pops the inner
        tr.end_span(a)
        assert tr.current() is tr.root
        tr.end_span(b)  # already popped; records the event regardless
    tr.finish()


def test_worker_tracer_ids_are_pid_prefixed():
    wt = tspans.worker_tracer(("trace-1", "s42"))
    assert wt.trace_id == "trace-1"
    assert wt.root.parent_id == "s42"
    assert wt.root.span_id.startswith("w")
    assert tspans.worker_tracer(None) is None


def test_spans_propagate_across_pool_workers(tmp_path):
    """jobs=2 prewarm: worker attempt spans land in the parent trace,
    parented under the parent-side sweep span chain."""
    tr = tspans.Tracer(run_id="pool-test")
    with tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
    tr.finish()
    assert ex.stats.misses == len(UNITS)

    names = _spans_by_name(tr)
    assert "sweep.prewarm" in names
    attempts = names.get("unit.attempt", [])
    assert len(attempts) >= len(UNITS)
    worker_attempts = [s for s in attempts if s.span_id.startswith("w")]
    assert worker_attempts, "no spans absorbed from pool workers"

    by_id = {
        e.span_id: e for e in tr.events if isinstance(e, tspans.Span)
    }
    sweep = names["sweep.prewarm"][0]
    for s in worker_attempts:
        # worker root -> parent-side span chain -> sweep.prewarm -> run
        chain = set()
        cur = s
        while cur is not None and cur.span_id not in chain:
            chain.add(cur.span_id)
            cur = by_id.get(cur.parent_id)
        assert sweep.span_id in chain

    # launch-cat spans (virtual kernel time) made it onto the timeline
    assert any(s.cat == "launch" for ss in names.values() for s in ss)



def test_long_lived_workers_never_reuse_span_ids(tmp_path):
    """Each warm worker serves several units; every unit's spans get
    fresh IDs, so every absorbed span is distinct and every worker
    span's parent is exactly one span of the merged trace."""
    units = [
        rexec.make_unit(bench, api, dev, "small")
        for bench in ("TranP", "Reduce")
        for api in ("cuda", "opencl")
        for dev in (GTX280, GTX480)
    ]
    tr = tspans.Tracer(run_id="ids")
    with tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
        assert ex.prewarm(units) == len(units)
    tr.finish()
    spans = [e for e in tr.events if isinstance(e, tspans.Span)]
    worker = [s for s in spans if s.span_id.startswith("w")]
    # a root, an attempt and launch spans per unit, at least
    assert len(worker) >= 3 * len(units)
    ids = [s.span_id for s in worker]
    assert len(set(ids)) == len(ids)
    named = collections.Counter(s.span_id for s in spans)
    assert all(named[s.parent_id] == 1 for s in worker)

def test_merged_trace_is_loadable_chrome_json(tmp_path):
    tr = tspans.Tracer(run_id="trace-test")
    with tspans.use_tracer(tr):
        ex = rexec.SweepExecutor(jobs=2, cache=tmp_path, progress="off")
        with rexec.use_executor(ex):
            ex.prewarm(UNITS)
    tr.finish()
    doc = chrome_trace(tr.events)
    blob = json.dumps(doc)
    loaded = json.loads(blob)
    evs = loaded["traceEvents"]
    assert all(e["ph"] in ("X", "i", "M") for e in evs)
    cats = {e.get("cat") for e in evs if e["ph"] == "X"}
    assert {"engine", "unit", "launch"} <= cats
    # every complete slice is rebased and non-negative
    assert all(e["ts"] >= 0 for e in evs if e["ph"] == "X")


def test_jsonl_event_log(tmp_path):
    path = tmp_path / "events.jsonl"
    tr = tspans.Tracer(run_id="jl", jsonl_path=str(path))
    with tspans.use_tracer(tr):
        with tspans.span("step", "engine"):
            tspans.event("mark", "engine")
    tr.finish()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    kinds = {(d["kind"], d["name"]) for d in lines}
    assert ("span", "step") in kinds
    assert ("instant", "mark") in kinds
    assert ("span", "run") in kinds
