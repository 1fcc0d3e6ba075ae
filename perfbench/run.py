"""The repository benchmark: paper sweeps and daemon tickets, end to end and per layer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``paper_cold``
    the whole paper sweep (``repro.experiments all --size default`` at
    jobs 2) from an empty result cache and an empty compile cache; each
    untraced pass runs the CLI in a fresh process, traced runs sweep
    in-process;
``paper_warm``
    the same sweep at jobs 1, re-rendered over a result cache primed
    (untimed) earlier in the same run.  Not declared in
    ``BENCHMARK.json``: on a shared 2-core host its single-process
    figures swung by a third between runs, and its priming sweep makes
    longer runs unaffordable.  The benchmark's own tests run it traced;
``serve_mixed``
    an in-process ``SweepDaemon`` with its HTTP API at jobs 2 and one
    closed-loop client: per device, one cold ticket (every benchmark x
    supported API at size default), then a repeat of a completed ticket
    that the cache serves.

The seed permutes experiment order, ticket device order and the unit
order inside each ticket; the program only receives those inputs.

``--trace 0`` times passes with nothing patched and prints the
end-to-end metrics: pass wall, CPU and throughput as the fast quarter of
the run's passes (see :func:`fast_quarter`), ``setup_s`` as the median
import time of fresh interpreters plus the median per-pass set-up (empty
caches, daemon boot), and the peak RSS of the largest process.
``--trace 1`` alternates untraced passes with
passes run under the layer wrappers of ``layers.py``, prints the
per-layer split per traced pass, and ``trace.overhead_frac``: the traced
passes' median wall over the untraced passes', minus one.

Every pass is checked against ``reference.json`` (``checks.py``);
``--record-reference`` rewrites that file from one cold sweep and one
ticket set.  The lines printed first give the run's context and every
metric with its unit and sample count; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 when every check held, 1 on a correctness failure (the result line is
still printed), 2 when the program's sources are not in the checkout.

Scratch files live under ``.perfbench_tmp/`` in the checkout and are
removed before exit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("paper_cold", "paper_warm", "serve_mixed")

#: environment switches that change what the program does; removed
#: before the program is imported, so every run measures the defaults
SCRUBBED_ENV = (
    "REPRO_SIM_BATCH",
    "REPRO_SIM_MEMO",
    "REPRO_FAULTS",
    "REPRO_HEARTBEAT_S",
    "REPRO_CACHE_DIR",
)

#: the modules a user's process imports before its first sweep or ticket
IMPORTS = "import repro.experiments.runner, repro.serve.daemon, repro.serve.api"

#: fresh interpreters timed per run for the import part of ``setup_s``
IMPORT_SAMPLES = 5

#: longest a ticket may take before it counts as failed
TICKET_TIMEOUT_S = 120.0
#: how often the client polls a ticket's status
POLL_S = 0.02


class ProgramMissing(RuntimeError):
    """The checkout holds no program sources to benchmark."""


def load_program() -> tuple:
    """Scrub the environment and import the program from ``src/``.

    Returns the scrubbed variables that were set, and the import wall.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    scrubbed = [k for k in SCRUBBED_ENV if os.environ.pop(k, None) is not None]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro.experiments.runner  # noqa: F401
    import repro.serve.api  # noqa: F401
    import repro.serve.daemon  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"repro was imported from {repro.__file__}, not {SRC}")
    return scrubbed, time.perf_counter() - t0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def jobs_cap() -> int:
    """Pool and daemon jobs: 2, capped at the machine's cores."""
    return max(1, min(2, os.cpu_count() or 1))


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def program_env() -> dict:
    """The (scrubbed) environment a program subprocess runs in."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds(samples: int) -> list:
    """Wall of fresh interpreters from start to the program's imports done."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORTS], env=program_env(), cwd=str(ROOT),
            check=True,
        )
        out.append(time.perf_counter() - t0)
    return out


class Run:
    """One workload's passes, timings and checks."""

    def __init__(self, workload: str, seed: int, trace: bool, checker) -> None:
        from repro.experiments import EXPERIMENTS

        self.workload = workload
        self.rng = random.Random(seed)
        self.trace = trace
        self.checker = checker
        self.jobs = jobs_cap()
        self.experiments = list(EXPERIMENTS)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.setups: list = []  # per-pass set-up seconds
        self.walls: list = []  # (wall, traced) per timed pass
        self.cpus: list = []
        self.units = 0  # unique units one pass resolves
        self.tickets: dict = {"cold": [], "hit": []}
        self.layer_rows: list = []  # layer_metrics of each traced pass
        self._digests: list = []
        self._tracer = None

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=name + "-", dir=self.tmp)

    # -- tracing -----------------------------------------------------------
    @contextlib.contextmanager
    def timed(self, traced: bool):
        """Time one pass; under ``traced``, record its spans through the wrappers."""
        tracer = None
        if traced:
            tracer = layers.Tracer(self.fresh_dir("spool")).__enter__()
            tracer.rec.on = True
        self._tracer = tracer
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                yield
            else:
                with tracer.rec.span(layers.PASS_SPAN):
                    yield
        finally:
            wall = time.perf_counter() - t0
            self.cpus.append(cpu_seconds() - cpu0)
            self.walls.append((wall, traced))
            self._tracer = None
            if tracer is not None:
                tracer.__exit__(None, None, None)
                spans, counts = tracer.rec.collect()
                self._account(spans, counts, tracer.rec.root_pid, wall)

    def span(self, name: str):
        """A harness span inside the current traced pass (a no-op otherwise)."""
        if self._tracer is None:
            return contextlib.nullcontext()
        return self._tracer.rec.span(name)

    def _account(self, spans, counts, root: int, wall: float) -> None:
        self.layer_rows.append(layers.layer_metrics(spans, counts, 1, self.jobs))
        # self times never exceed the span they sit in, and no span of
        # this process outlasts the pass
        selfs = layers.self_times(spans)
        names = {(s[0], s[1]): s[3] for s in spans}
        worst = min(selfs, key=selfs.get)
        longest = max(s[5] - s[4] for s in spans if s[0] == root)
        self.checker.op(
            selfs[worst] >= -1e-6 and longest <= wall + 1e-6,
            f"traced pass: {names[worst]} has self time {selfs[worst]:.6f} s, "
            f"longest span {longest:.3f} s in a {wall:.3f} s pass",
        )
        if self.workload != "paper_warm" and self.jobs > 1:
            # worker spans need forked workers, which inherit the wrappers
            workers = {s[0] for s in spans if s[0] != root}
            self.checker.op(
                bool(workers),
                "traced pass recorded no worker spans (start method "
                f"{multiprocessing.get_start_method()}); worker layers read 0",
            )

    # -- paper sweeps ------------------------------------------------------
    def paper_pass(
        self, cache_dir: str, jobs: int, traced: bool, cold: bool, timed=True
    ) -> None:
        """One sweep of every experiment, in a seeded order; ``cold`` empties
        the compile cache first (the result cache is whatever ``cache_dir``
        holds)."""
        from repro.compiler import ccache
        from repro.experiments import runner

        names = list(self.experiments)
        self.rng.shuffle(names)
        argv = [
            *names, "--size", "default", "--jobs", str(jobs),
            "--cache-dir", cache_dir, "--progress", "off", "--quiet",
        ]
        if cold and timed and not self.trace:
            # what a user runs: the CLI in a fresh process.  A second
            # in-process sweep would fork its workers from a parent that
            # the first one left warm.
            with self.timed(False):
                proc = subprocess.run(
                    [sys.executable, "-m", "repro.experiments", *argv],
                    env=program_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
                    text=True,
                )
            code, text = proc.returncode, proc.stdout
        else:
            if cold:
                # forked pool workers inherit this process's compile cache
                t0 = time.perf_counter()
                ccache.clear()
                self.setups.append(time.perf_counter() - t0)
            out = io.StringIO()
            with (self.timed(traced) if timed else contextlib.nullcontext()), \
                    contextlib.redirect_stdout(out):
                code = runner.main(argv)
            text = out.getvalue()
        self.check_paper(code, text, cache_dir)
        self.units = len(self._digests)

    def check_paper(self, code: int, text: str, cache_dir: str) -> None:
        from repro.exec.cache import ResultCache, canonical_results_json, result_from_json

        ck = self.checker
        ck.op(code == 0, f"experiments exited {code}")
        ck.op("[MISS]" not in text, "a paper shape check did not hold")
        reports = split_reports(text)
        for name in self.experiments:
            block = reports.get(name)
            ck.expect(
                f"paper.report.{name}",
                None if block is None else checks.text_digest(block),
            )
        if not self._digests:
            self._digests = paper_digests()
        cache = ResultCache(cache_dir)
        payloads = [cache.get(d) for d in self._digests]
        if not ck.op(all(p is not None for p in payloads), "a sweep unit has no result"):
            return
        doc = canonical_results_json(result_from_json(p, cached=True) for p in payloads)
        ck.expect("paper.results", checks.summarize(doc))

    # -- daemon tickets ----------------------------------------------------
    def serve_pass(self, traced: bool) -> None:
        from repro.arch.specs import ALL_DEVICES
        from repro.compiler import ccache
        from repro.serve.api import ServeAPI
        from repro.serve.client import ServeClient
        from repro.serve.daemon import SweepDaemon

        devices = sorted(ALL_DEVICES)
        self.rng.shuffle(devices)
        t0 = time.perf_counter()
        ccache.clear()
        daemon = SweepDaemon(self.fresh_dir("serve"), jobs=self.jobs).start()
        api = ServeAPI(daemon).start()
        try:
            client = ServeClient(api.host, api.port)
            client.healthz()
            self.setups.append(time.perf_counter() - t0)
            done: list = []
            with self.timed(traced):
                for device in devices:
                    units = ticket_units(ALL_DEVICES[device], self.rng)
                    self.ticket(client, "cold", device, units)
                    done.append((device, units))
                    again, units = self.rng.choice(done)
                    units = list(units)
                    self.rng.shuffle(units)
                    self.ticket(client, "hit", again, units)
            # the repeats resolve no new unit
            self.units = sum(len(units) for _, units in done)
        finally:
            api.stop()
            summary = daemon.stop(grace=30.0)
        self.checker.op(
            summary["exit_code"] == 0, f"daemon stopped with {summary}"
        )

    def ticket(self, client, kind: str, device: str, units: list) -> None:
        from repro.serve.client import ServeError

        ck = self.checker
        with self.span(layers.TICKET_SPAN):
            t0 = time.perf_counter()
            try:
                ticket = client.submit("bench", units)["ticket"]
                deadline = t0 + TICKET_TIMEOUT_S
                while True:
                    st = client.ticket(ticket)
                    if st["complete"] or time.perf_counter() > deadline:
                        break
                    time.sleep(POLL_S)
                raw = client.ticket_results(ticket) if st["complete"] else None
            except (ServeError, OSError) as e:
                ck.op(False, f"{kind} ticket on {device}: {e}")
                return
            self.tickets[kind].append(time.perf_counter() - t0)
        if not ck.op(raw is not None, f"{kind} ticket on {device} timed out"):
            return
        ck.op(st["units"]["failed"] == 0, f"{kind} ticket on {device}: failed units")
        ck.expect(f"serve.{device}", checks.summarize(raw))


def split_reports(text: str) -> dict:
    """Experiment name -> its rendered report, from the runner's stdout."""
    out: dict = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            name = line[3:].split(":", 1)[0]
            out[name] = ""
        if name is not None:
            out[name] += line
    return out


def paper_digests() -> list:
    """Content addresses of every unit of the whole paper sweep."""
    from repro.exec.unit import unit_digest
    from repro.experiments import EXPERIMENTS, runner

    seen: dict = {}
    for u in runner.collect_units(list(EXPERIMENTS), "default"):
        seen.setdefault(u, None)
    return sorted({unit_digest(u) for u in seen})


def ticket_units(spec, rng: random.Random) -> list:
    """Every benchmark x supported API on one device at size default, shuffled."""
    from repro.benchsuite.registry import REAL_WORLD, SYNTHETIC

    apis = ["cuda", "opencl"] if spec.supports_cuda() else ["opencl"]
    units = [
        {"benchmark": b, "api": a, "device": spec.name, "size": "default"}
        for b in SYNTHETIC + REAL_WORLD
        for a in apis
    ]
    rng.shuffle(units)
    return units


def drive(run: Run, seconds: float) -> None:
    """Run timed passes until ``seconds`` have gone; traced runs alternate."""
    passes = 0
    deadline = None
    if run.workload == "paper_warm":
        # priming is not timed: one cold sweep into the cache the passes reuse
        primed = run.fresh_dir("primed")
        run.paper_pass(primed, run.jobs, traced=False, cold=True, timed=False)
    while True:
        traced = run.trace and passes % 2 == 1
        if run.workload == "paper_cold":
            cache_dir = run.fresh_dir("cold")
            run.paper_pass(cache_dir, run.jobs, traced, cold=True)
            shutil.rmtree(cache_dir, ignore_errors=True)
        elif run.workload == "paper_warm":
            run.paper_pass(primed, 1, traced, cold=False)
        else:
            run.serve_pass(traced)
        passes += 1
        if deadline is None:
            deadline = time.perf_counter() - run.walls[0][0] + seconds
        if time.perf_counter() >= deadline and passes >= (2 if run.trace else 1):
            return


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def fast_quarter(xs) -> float:
    """The lower quartile (the minimum below four samples).

    Other tenants of a shared host slow a CPU-bound pass by up to 1.8x
    for seconds to minutes at a time, so the median of a run's passes
    moves with how much of the run they overlapped; the fast quarter
    tracks the program.
    """
    if len(xs) < 4:
        return min(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


def end_to_end(run: Run, import_s: list) -> dict:
    """The end-to-end metrics, each with its unit and sample count."""
    walls = [w for w, _ in run.walls]
    sweep = fast_quarter(walls)
    # the largest single process of the run: the harness, a CLI sweep
    # process or one of the pool or daemon workers
    rss = max(
        resource.getrusage(who).ru_maxrss / 1024.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {
        "setup_s": (median(import_s) + median(run.setups), "s", len(import_s)),
        "sweep_s": (sweep, "s", len(walls)),
        "units_per_s": (run.units / sweep, "1/s", len(walls)),
        "cpu_s": (fast_quarter(run.cpus), "s", len(run.cpus)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def context_only(run: Run, import_s: list, in_process_import_s: float) -> dict:
    """Figures the report shows that are not gated metrics."""
    walls = [w for w, _ in run.walls]
    out = {
        "sweep_median_s": (median(walls), "s", len(walls)),
        "sweep_max_s": (max(walls), "s", len(walls)),
        "import_s": (median(import_s), "s", len(import_s)),
        "in_process_import_s": (in_process_import_s, "s", 1),
        "pass_setup_s": (median(run.setups), "s", len(run.setups)),
        "harness_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    for kind, xs in run.tickets.items():
        if xs:
            out[f"ticket_{kind}_s"] = (median(xs), "s", len(xs))
    return out


def per_layer(run: Run) -> dict:
    """The mean of each per-layer metric over the traced passes."""
    rows = run.layer_rows
    out = {}
    for name, unit in layers.PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            traced = [w for w, t in run.walls if t]
            plain = [w for w, t in run.walls if not t]
            value = median(traced) / median(plain) - 1.0 if plain else 0.0
            out[name] = (value, unit, min(len(traced), len(plain)))
        else:
            out[name] = (statistics.fmean(r[name] for r in rows), unit, len(rows))
    return out


def print_table(title: str, table: dict) -> None:
    print(title)
    for name, (value, unit, n) in table.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")


def measure(workload: str, seed: int, seconds: float, trace: bool, faults=None) -> dict:
    """Run one workload; return the result object and the report's figures.

    ``faults`` plants a ``REPRO_FAULTS`` plan for the program after the
    environment was scrubbed; the benchmark's own tests use it.
    """
    scrubbed, in_process_import_s = load_program()
    SCRATCH.mkdir(exist_ok=True)
    checker = checks.Checker()
    if faults is not None:
        os.environ["REPRO_FAULTS"] = faults
    run = Run(workload, seed, trace, checker)
    try:
        import_s = [] if trace else import_seconds(IMPORT_SAMPLES)
        drive(run, seconds)
    finally:
        run.close()
        if faults is not None:
            os.environ.pop("REPRO_FAULTS", None)
    context = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "jobs": run.jobs,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "env_scrubbed": list(SCRUBBED_ENV),
        "env_was_set": scrubbed,
    }
    if trace:
        metrics = per_layer(run)
        extra = {}
    else:
        metrics = end_to_end(run, import_s)
        extra = context_only(run, import_s, in_process_import_s)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return {
        "result": result, "context": context, "table": metrics, "extra": extra,
        "failures": checker.failures,
    }


def record_reference() -> int:
    """Rewrite ``reference.json`` from one cold sweep and one ticket set."""
    load_program()
    SCRATCH.mkdir(exist_ok=True)
    checker = checks.Checker(record=True)
    for workload in ("paper_cold", "serve_mixed"):
        run = Run(workload, 0, False, checker)
        try:
            if workload == "paper_cold":
                run.paper_pass(run.fresh_dir("cold"), run.jobs, False, cold=True)
            else:
                run.serve_pass(traced=False)
        finally:
            run.close()
    checker.save({
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "recorded_unix": int(time.time()),
    })
    print(f"recorded {len(checker.reference)} reference entries in {checker.path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference", action="store_true",
        help="rewrite reference.json from this checkout's program",
    )
    args = ap.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("context " + json.dumps(out["context"], sort_keys=True))
    for what in out["failures"]:
        print(f"FAILED {what}")
    res = out["result"]
    print(
        f"failed_frac {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} checked operations)"
    )
    print_table("per-layer metrics (per traced pass)" if args.trace
                else "end-to-end metrics", out["table"])
    if out["extra"]:
        print_table("context figures (not gated)", out["extra"])
    print(json.dumps(res, sort_keys=True))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
