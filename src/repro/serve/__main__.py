"""CLI: the sweep daemon and its control-plane subcommands.

    # run the daemon (foreground; SIGTERM drains gracefully)
    python -m repro.serve --cache-dir .repro-cache --jobs 4

    # from another shell: submit work, wait, fetch canonical results
    python -m repro.serve submit Sobel FFT --device GTX480 --api both \\
        --tenant alice --wait 120 --results-json out.json

    # inspect / drain
    python -m repro.serve status --json
    python -m repro.serve drain

The daemon owns one sweep workdir (``--cache-dir``): it binds a
loopback port, advertises it in ``<cache>/serve/endpoint.json``, and
journals every queue transition to ``<cache>/serve/queue.jsonl``.
``kill -9`` it mid-sweep and the next boot replays the WAL, reclaims
orphaned leases, and finishes the queue with zero lost or duplicated
units.  Exit codes follow the sweep lifecycle contract: 0 clean,
1 failed units, 75 (``EX_TEMPFAIL``) when queued work remains for the
next boot.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time

from .. import exec as rexec
from ..exec import lifecycle
from ..exec.unit import unit_to_dict
from ..obs.registry import serve_status
from ..obs.render import render_serve
from .admission import TenantQuota
from .api import ServeAPI, pid_alive, read_endpoint
from .client import ServeError, discover
from .daemon import SweepDaemon

_SUBCOMMANDS = ("submit", "status", "drain")


def _add_cache_dir(ap: argparse.ArgumentParser) -> None:
    ap.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep workdir (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _cache_dir(args) -> str:
    return args.cache_dir or rexec.default_cache_dir()


# -- daemon ----------------------------------------------------------------
def _daemon_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the crash-safe sweep daemon for one workdir",
    )
    _add_cache_dir(ap)
    ap.add_argument("--jobs", type=int, default=4, metavar="N",
                    help="dispatcher threads / max concurrent leases (default 4)")
    ap.add_argument("--host", default="127.0.0.1",
                    help="bind address (loopback only; default 127.0.0.1)")
    ap.add_argument("--port", type=int, default=0, metavar="P",
                    help="bind port (default 0 = ephemeral, advertised "
                    "in the endpoint file)")
    ap.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="per-unit wall-clock budget")
    ap.add_argument("--retries", type=int, default=2, metavar="N",
                    help="re-dispatch budget for transient/crashed units "
                    "(default 2)")
    ap.add_argument("--backoff", type=float, default=0.05, metavar="SEC",
                    help="base of the jittered exponential retry backoff")
    ap.add_argument("--quota-outstanding", type=int, default=64, metavar="N",
                    help="per-tenant max queued-or-leased units (default 64)")
    ap.add_argument("--quota-inflight", type=int, default=None, metavar="N",
                    help="per-tenant max concurrent leases (default: --jobs)")
    ap.add_argument("--queue-bound", type=int, default=256, metavar="N",
                    help="global queued-unit bound before 503 backpressure")
    ap.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                    help="consecutive terminal failures that open a "
                    "device's circuit breaker")
    ap.add_argument("--breaker-cooldown", type=float, default=30.0,
                    metavar="SEC", help="seconds an open breaker rejects "
                    "before going half-open")
    ap.add_argument("--grace", type=float, default=30.0, metavar="SEC",
                    help="drain grace for in-flight leases on shutdown")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault-injection plan (JSON or compact spec; "
                    "default: $REPRO_FAULTS)")
    return ap


def _run_daemon(argv) -> int:
    args = _daemon_parser().parse_args(argv)
    cache_dir = _cache_dir(args)
    ep = read_endpoint(cache_dir)
    if ep is not None and pid_alive(ep.get("pid", -1)):
        print(
            f"error: a daemon (pid {ep['pid']}) already owns {cache_dir} "
            f"(endpoint http://{ep.get('host')}:{ep.get('port')})",
            file=sys.stderr,
        )
        return 1
    daemon = SweepDaemon(
        cache_dir,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        quota=TenantQuota(
            max_outstanding=args.quota_outstanding,
            max_inflight=(
                args.quota_inflight if args.quota_inflight is not None
                else args.jobs
            ),
        ),
        queue_bound=args.queue_bound,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        faults=args.faults,
    )
    daemon.start()
    api = ServeAPI(daemon, host=args.host, port=args.port).start()
    print(
        f"repro.serve: epoch {daemon.epoch} on http://{api.host}:{api.port} "
        f"(workdir {cache_dir}); SIGTERM drains",
        flush=True,
    )
    stop_requested = threading.Event()

    def _on_signal(signum, frame):
        stop_requested.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _on_signal)
        except (ValueError, OSError):
            pass
    while not stop_requested.wait(0.2):
        pass
    print("repro.serve: draining...", flush=True)
    summary = daemon.stop(grace=args.grace)
    api.stop()
    print(
        f"repro.serve: {summary['state']} "
        f"({summary['remaining']} unit(s) left, "
        f"{summary['unexpected_failures']} unexpected failure(s))"
        + (f"; dispatch stopped: {summary['error']}" if summary["error"] else ""),
        flush=True,
    )
    return summary["exit_code"]


# -- submit ----------------------------------------------------------------
def _submit_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve submit",
        description="Submit benchmarks to a running sweep daemon",
    )
    lifecycle.add_selection_arguments(ap, "submit")
    ap.add_argument("--tenant", default="default",
                    help="tenant name for quota accounting")
    _add_cache_dir(ap)
    ap.add_argument("--wait", type=float, default=None, metavar="SEC",
                    help="block until the ticket completes (or SEC passes)")
    ap.add_argument("--results-json", default=None, metavar="FILE",
                    help="write the ticket's canonical results document "
                    "(implies --wait; byte-identical to any sweep CLI's)")
    return ap


def _cmd_submit(argv) -> int:
    ap = _submit_parser()
    args = ap.parse_args(argv)
    units = [
        unit_to_dict(u)
        for u in lifecycle.select_units(ap, args, "submitting")
    ]
    cache_dir = _cache_dir(args)
    client = discover(cache_dir)
    if client is None:
        print(
            f"error: no live daemon for {cache_dir} "
            "(start one: python -m repro.serve)",
            file=sys.stderr,
        )
        return 1
    try:
        outcome = client.submit(args.tenant, units)
    except ServeError as e:
        print(f"error: {e}", file=sys.stderr)
        # a quota/backpressure rejection is retryable-later, not fatal:
        # the same EX_TEMPFAIL the sweep CLIs use for resumable exits
        return 75 if e.status in (429, 503) else 1
    ticket = outcome["ticket"]
    print(
        f"ticket {ticket}: {outcome['units']} unit(s) admitted "
        f"({outcome['cached']} cache-served, {outcome['deduped']} deduped)"
    )
    wait_s = args.wait if args.wait is not None else (
        600.0 if args.results_json else None
    )
    if wait_s is None:
        return 0
    deadline = time.monotonic() + wait_s
    while True:
        st = client.ticket(ticket)
        if st["complete"]:
            break
        if time.monotonic() > deadline:
            print(
                f"error: ticket {ticket} incomplete after {wait_s:g}s: "
                f"{st['units']}",
                file=sys.stderr,
            )
            return 75
        time.sleep(0.2)
    failed = st["units"].get("failed", 0)
    for row in st["rows"]:
        tag = row["state"] if row["state"] != "done" else (
            f"done({row['source']})"
        )
        extra = f" kind={row['kind']}" if row["kind"] else ""
        print(f"  {row['label']:40s} {tag}{extra}")
    if args.results_json:
        raw = client.ticket_results(ticket)
        with open(args.results_json, "wb") as f:
            f.write(raw)
        print(f"wrote {args.results_json} ({len(raw)} bytes)")
    return 1 if failed else 0


# -- status / drain --------------------------------------------------------
def _cmd_status(argv) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.serve status")
    _add_cache_dir(ap)
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="print the raw status document")
    args = ap.parse_args(argv)
    # the same document and view as `python -m repro.obs serve`
    doc = serve_status(_cache_dir(args))
    if args.as_json:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(render_serve(doc))
    return 0


def _cmd_drain(argv) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.serve drain")
    _add_cache_dir(ap)
    args = ap.parse_args(argv)
    client = discover(_cache_dir(args))
    if client is None:
        print("error: no live daemon", file=sys.stderr)
        return 1
    client.drain()
    print("drain requested")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        cmd, rest = argv[0], argv[1:]
        if cmd == "submit":
            return _cmd_submit(rest)
        if cmd == "status":
            return _cmd_status(rest)
        return _cmd_drain(rest)
    return _run_daemon(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
