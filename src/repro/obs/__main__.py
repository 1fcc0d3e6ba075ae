"""CLI: observe sweep runs from outside the sweep process.

    python -m repro.obs ls                         # fleet overview
    python -m repro.obs status <run-id> [--json]   # one run, in depth
    python -m repro.obs watch --latest             # live re-rendered view
    python -m repro.obs watch --latest --once      # deterministic snapshot
    python -m repro.obs metrics --latest --check   # OpenMetrics textfile
    python -m repro.obs critpath trace.json        # wall-clock attribution

Everything reads artifacts the engine already wrote durably (journal
WAL, heartbeat records, metrics snapshots, merged traces) — a hung or
crashed sweep is as observable as a healthy one.

``--once`` snapshots pin *now* to the journal's last record timestamp,
so their bytes depend only on journal contents — the property the
golden-file tests and CI assertions rely on.  Live modes use the wall
clock, which is what makes heartbeat-staleness detection meaningful.

Exits 0 on success; 1 when ``metrics --check`` finds lint problems; 2
on bad usage.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .. import exec as rexec
from ..telemetry import metrics as tmetrics
from . import critpath as cp
from . import openmetrics as om
from .registry import find_run, runs
from .render import render_ls, render_serve, render_status

__all__ = ["main"]


def _add_cache_dir(ap) -> None:
    ap.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep workdir to observe (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def _add_run_selector(ap) -> None:
    ap.add_argument(
        "run", nargs="?", default=None, metavar="RUN-ID",
        help="run to observe (default: the most recently active)",
    )
    ap.add_argument(
        "--latest", action="store_true",
        help="observe the most recently active run (same as omitting RUN-ID)",
    )


def _cache_dir(args) -> str:
    return args.cache_dir or rexec.default_cache_dir()


def _resolve(args):
    token = None if args.latest else args.run
    return find_run(_cache_dir(args), token)


# -- subcommands -----------------------------------------------------------
def _cmd_ls(args) -> int:
    trackers = runs(_cache_dir(args))
    statuses = [t.status() for t in trackers]
    if args.json:
        json.dump([s.as_dict() for s in statuses], sys.stdout, indent=1,
                  sort_keys=True)
        print()
    else:
        print(render_ls(statuses))
    return 0


def _cmd_status(args) -> int:
    tracker = _resolve(args)
    now = tracker.last_unix if args.once else None
    status = tracker.status(now=now)
    if args.json:
        json.dump(status.as_dict(), sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(render_status(status))
    return 0


def _cmd_watch(args) -> int:
    tracker = _resolve(args)
    if args.once:
        print(render_status(tracker.status(now=tracker.last_unix)))
        return 0
    tty = sys.stdout.isatty()
    try:
        while True:
            tracker.poll()
            status = tracker.status()
            block = render_status(status)
            if tty:
                sys.stdout.write("\x1b[2J\x1b[H" + block + "\n")
            else:
                print(block)
                print()
            sys.stdout.flush()
            if status.state not in ("running", "planned") or status.live is False:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_metrics(args) -> int:
    tracker = _resolve(args)
    path = tmetrics.snapshot_path(_cache_dir(args), tracker.run_id)
    try:
        doc = tmetrics.load_snapshot_file(path)
    except OSError:
        raise SystemExit(
            f"no metrics snapshot at {path} (the engine flushes one per "
            "heartbeat; has the run produced a beat yet?)"
        )
    text = om.render(doc["metrics"], run_id=doc.get("run_id", tracker.run_id))
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"obs: wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.check:
        problems = om.lint(text)
        for p in problems:
            print(f"obs: lint: {p}", file=sys.stderr)
        if problems:
            return 1
        print("obs: exporter output lints clean", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    """Render the sweep daemon's /status — live over HTTP, or a WAL
    post-mortem (with the 3x-heartbeat staleness verdict) when dead."""
    from ..serve.client import discover
    from ..serve.wal import replay as serve_replay
    from ..serve.wal import wal_path
    from .registry import STALE_BEATS

    cache_dir = _cache_dir(args)
    client = discover(cache_dir)
    if client is not None:
        doc = client.status()
        live = True
    else:
        rep = serve_replay(wal_path(cache_dir))
        doc = rep.summary()
        doc["wal"] = str(wal_path(cache_dir))
        doc["records"] = rep.records
        doc["torn_lines"] = rep.torn_lines
        hb = rep.last_heartbeat
        if hb and isinstance(hb.get("unix"), (int, float)):
            interval = float(hb.get("interval") or 5.0)
            age = time.time() - hb["unix"]
            doc["last_heartbeat_age_s"] = round(age, 3)
            doc["staleness"] = (
                "stale" if age > STALE_BEATS * interval else "recent"
            )
        live = False
    if args.json:
        json.dump({"live": live, **doc}, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(render_serve(doc, live))
    return 0


def _cmd_critpath(args) -> int:
    result = cp.analyze(cp.load_trace(args.trace), top=args.top)
    if args.diff:
        other = cp.analyze(cp.load_trace(args.diff), top=args.top)
        if args.json:
            json.dump(
                {"base": result, "current": other,
                 "diff": cp.diff(result, other)},
                sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            print(cp.render(result, label=args.trace))
            print()
            print(cp.render(other, label=args.diff))
            print()
            print(cp.render_diff(cp.diff(result, other), args.trace, args.diff))
    elif args.json:
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(cp.render(result, label=args.trace))
    return 0


# -- entry -----------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observe sweep runs from outside the sweep process",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ls", help="list every run under the cache dir")
    _add_cache_dir(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ls)

    p = sub.add_parser("status", help="derived status of one run")
    _add_run_selector(p)
    _add_cache_dir(p)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--once", action="store_true",
        help="deterministic snapshot: pin 'now' to the journal's last record",
    )
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("watch", help="live re-rendered status of one run")
    _add_run_selector(p)
    _add_cache_dir(p)
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SEC",
        help="seconds between journal polls (default 2)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render one deterministic snapshot and exit",
    )
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "metrics", help="render a run's metrics snapshot as OpenMetrics"
    )
    _add_run_selector(p)
    _add_cache_dir(p)
    p.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the textfile here instead of stdout",
    )
    p.add_argument(
        "--check", action="store_true",
        help="lint the rendered textfile; exit 1 on problems",
    )
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "serve", help="status of the sweep daemon (live API or WAL post-mortem)"
    )
    _add_cache_dir(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "critpath", help="per-category wall attribution of a merged trace"
    )
    p.add_argument("trace", metavar="TRACE.json")
    p.add_argument(
        "--diff", default=None, metavar="TRACE2.json",
        help="also analyze a second trace and report per-category deltas",
    )
    p.add_argument("--top", type=int, default=10, metavar="K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_critpath)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Reader (head, less, ...) went away; silence the interpreter's
        # stderr complaint on shutdown and exit like a killed pipe writer.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
