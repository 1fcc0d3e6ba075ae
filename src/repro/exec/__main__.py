"""CLI: housekeeping for sweep workdirs.

    python -m repro.exec gc [--cache-dir DIR] [--max-age DAYS] [--dry-run]

``gc`` reclaims the disk a long-lived sweep workdir accretes, touching
only artifacts that are provably dead:

* **journal compaction** — journals of runs that reached a terminal
  state are rewritten without the records whose removal leaves the
  fold unchanged: ``hb`` beats, and the ``lease``/``requeue`` records
  of units a ``done`` or ``fail`` settled.  The compacted journal
  folds to the identical completed, failed and in-flight sets and
  state, so ``--resume`` of an interrupted run re-runs exactly what it
  would have, and of a *complete* run still serves everything from
  cache.  Journals of running runs are never touched.
* **tmp corpses** — pid-suffixed ``*.tmp.*`` files orphaned by killed
  writers, in the cache shards, the metrics dir, the journal dir, and
  the daemon's ``serve/`` state dir.
* **stale metrics snapshots** — per-run ``metrics/<run-id>.json``
  liveness snapshots exist so :mod:`repro.obs` can watch a run from
  outside the process; once the run's journal is terminal (and hence
  compacted), or the journal is gone and the snapshot has outlived
  ``--max-age`` days, the snapshot is dead weight and is pruned.
* **stale quarantine** — corrupt entries preserved for post-mortem are
  pruned (with their ``.reason`` sidecars) once older than
  ``--max-age`` days (default 7): by then nobody is coming to look.

Every action is reported with the bytes it reclaimed; ``--dry-run``
reports without deleting.  Exits 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .. import durable
from . import journal as journal_mod
from .cache import default_cache_dir

__all__ = ["main", "gc_run", "DEFAULT_MAX_AGE_DAYS"]

#: quarantined entries younger than this many days are kept for triage
DEFAULT_MAX_AGE_DAYS = 7.0

#: record types that survive journal compaction whole; the records
#: that open and reopen a lease survive only for unsettled units
_KEEP_RECORDS = ("run", "plan", "done", "fail", "state")
_LEASE_RECORDS = ("lease", "start", "requeue")

#: journal states eligible for compaction
_TERMINAL = ("complete", "interrupted", "failed")


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _compact_journal(path: Path, dry_run: bool) -> int:
    """Rewrite one terminal journal without the records the fold ignores.

    Returns bytes reclaimed (0 when the journal is not terminal, is
    already compact, or cannot be read).  The rewrite is an atomic
    replace, so a concurrent reader never sees a torn journal.
    """
    try:
        records, _ = durable.replay(path)
        size = path.stat().st_size
    except OSError:
        return 0
    rep = journal_mod.JournalReplay(path=path)
    for r in records:
        journal_mod.fold(rep, r)
    settled = rep.completed | set(rep.failed)
    kept = [
        r for r in records if r.get("t") in _KEEP_RECORDS
        or (r.get("t") in _LEASE_RECORDS and r.get("d") not in settled)
    ]
    if rep.state not in _TERMINAL or len(kept) == len(records):
        return 0
    new_body = "".join(durable.encode(r) for r in kept)
    reclaimed = max(0, size - len(new_body.encode()))
    if dry_run:
        return reclaimed
    try:
        durable.atomic_write(path, new_body)
    except OSError:
        return 0
    return reclaimed


def _unlink(path: Path, dry_run: bool) -> int:
    size = _size(path)
    if dry_run:
        return size
    try:
        path.unlink()
    except OSError:
        return 0
    return size


def gc_run(
    cache_dir,
    max_age_days: float = DEFAULT_MAX_AGE_DAYS,
    dry_run: bool = False,
    now: float = None,
) -> dict:
    """Collect garbage under one sweep workdir; returns the accounting.

    ``now`` pins the age cutoff for tests; defaults to wall clock.
    """
    root = Path(cache_dir)
    now = time.time() if now is None else float(now)
    report = {
        "cache_dir": str(root),
        "dry_run": dry_run,
        "journals_compacted": 0,
        "journal_bytes": 0,
        "tmp_removed": 0,
        "tmp_bytes": 0,
        "metrics_removed": 0,
        "metrics_bytes": 0,
        "quarantine_removed": 0,
        "quarantine_bytes": 0,
    }
    if not root.is_dir():
        return report

    # 1. compact journals of terminal runs
    jdir = journal_mod.journal_dir(root)
    if jdir.is_dir():
        for path in sorted(jdir.glob("*.jsonl")):
            reclaimed = _compact_journal(path, dry_run)
            if reclaimed:
                report["journals_compacted"] += 1
                report["journal_bytes"] += reclaimed

    # 2. sweep tmp corpses everywhere atomic writers leave them
    for tmp in durable.tmp_corpses(
        root, "[0-9a-f][0-9a-f]/*.tmp.*", "metrics/*.tmp.*", "journal/*.tmp.*",
        "serve/*.tmp.*", "serve/err/*.tmp.*",
    ):
        freed = _unlink(tmp, dry_run)
        if freed or dry_run:
            report["tmp_removed"] += 1
            report["tmp_bytes"] += freed

    # 3. prune metrics snapshots of runs that are over.  A snapshot is
    # only useful while repro.obs might watch the run live; "over"
    # means its journal replays to a terminal state (the same rule that
    # makes the journal itself compactable), or the journal is gone
    # entirely and the snapshot has sat untouched past --max-age (a
    # journalless writer — e.g. the serve daemon's liveness snapshot —
    # refreshes its mtime every beat while alive).
    mdir = root / "metrics"
    if mdir.is_dir():
        cutoff = now - max_age_days * 86400.0
        for snap in sorted(mdir.glob("*.json")):
            jpath = journal_mod.journal_dir(root) / f"{snap.stem}.jsonl"
            try:
                prune = journal_mod.load(jpath).state in _TERMINAL
            except OSError:
                try:
                    prune = snap.stat().st_mtime <= cutoff
                except OSError:
                    continue
            if not prune:
                continue
            freed = _unlink(snap, dry_run)
            if freed or dry_run:
                report["metrics_removed"] += 1
                report["metrics_bytes"] += freed

    # 4. prune quarantine entries past the triage window
    qdir = root / "quarantine"
    if qdir.is_dir():
        cutoff = now - max_age_days * 86400.0
        for entry in sorted(qdir.iterdir()):
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue
            if mtime > cutoff:
                continue
            freed = _unlink(entry, dry_run)
            if freed or dry_run:
                report["quarantine_removed"] += 1
                report["quarantine_bytes"] += freed

    report["bytes_reclaimed"] = (
        report["journal_bytes"] + report["tmp_bytes"]
        + report["metrics_bytes"] + report["quarantine_bytes"]
    )
    return report


def render_gc(report: dict) -> str:
    tag = " (dry run)" if report["dry_run"] else ""
    return "\n".join([
        f"== gc {report['cache_dir']}{tag} ==",
        f"  journals:   {report['journals_compacted']} compacted, "
        f"{report['journal_bytes']} bytes",
        f"  tmp:        {report['tmp_removed']} corpse(s), "
        f"{report['tmp_bytes']} bytes",
        f"  metrics:    {report.get('metrics_removed', 0)} snapshot(s), "
        f"{report.get('metrics_bytes', 0)} bytes",
        f"  quarantine: {report['quarantine_removed']} entr(ies), "
        f"{report['quarantine_bytes']} bytes",
        f"  reclaimed:  {report.get('bytes_reclaimed', 0)} bytes",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Housekeeping for sweep workdirs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("gc", help="reclaim dead artifacts in a sweep workdir")
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep workdir to collect (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--max-age", type=float, default=DEFAULT_MAX_AGE_DAYS, metavar="DAYS",
        help="prune quarantine entries older than DAYS (default 7)",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be reclaimed without deleting anything",
    )
    p.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)

    report = gc_run(
        args.cache_dir or default_cache_dir(),
        max_age_days=args.max_age,
        dry_run=args.dry_run,
    )
    try:
        if args.json:
            json.dump(report, sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            print(render_gc(report))
    except BrokenPipeError:
        # Reader (head, less, ...) went away; silence the interpreter's
        # stderr complaint on shutdown and exit like a killed pipe writer.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
