"""Durable files: the one place that decides how bytes reach the disk.

Two shapes cover every crash-safe file in a sweep workdir (DESIGN.md,
"Durable files"):

* snapshots, replaced whole by :func:`atomic_write`: a reader sees the
  old document or the new one, never a torn one;
* logs, append-only JSONL written by :class:`Log` and read by
  :class:`Follower` / :func:`replay`: every append is fsynced before it
  returns, and a torn tail is never consumed and is terminated by the
  next writer before its first record.

:func:`every` is the heartbeat thread, beating at
:func:`heartbeat_interval`.
"""
from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from .telemetry import log, metrics

__all__ = [
    "atomic_write",
    "tmp_corpses",
    "encode",
    "Log",
    "Follower",
    "replay",
    "every",
    "DEFAULT_HEARTBEAT_S",
    "heartbeat_interval",
]


# -- snapshots --------------------------------------------------------------
def atomic_write(path, text: str) -> Path:
    """Replace ``path`` with ``text``: tmp file, fsync, ``os.replace``.

    The parent directory is created when missing.  On any failure the
    tmp file is removed and the exception propagates, leaving the old
    content in place.  An ``OSError`` from fsync alone is tolerated:
    on a filesystem without fsync the rename is still atomic.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            try:
                os.fsync(f.fileno())
            except OSError:
                pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def tmp_corpses(root, *patterns: str) -> list:
    """Tmp files under ``root`` matching ``patterns``, except this process's.

    Tmp names carry the writer's pid, so a file from another pid is
    overwhelmingly a corpse: a live writer renames within milliseconds.
    """
    own = f".tmp.{os.getpid()}"
    return [
        p for pattern in patterns for p in sorted(Path(root).glob(pattern))
        if not p.name.endswith(own)
    ]


# -- logs -------------------------------------------------------------------
def encode(record: dict) -> str:
    """One log line: compact, key-sorted JSON plus the newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class Log:
    """Append-only JSONL file; each append is durable when it returns.

    ``counter`` and ``histogram`` name the metrics every append bumps
    (append count, and append latency in fsync buckets).
    """

    def __init__(
        self, path, counter: Optional[str] = None,
        histogram: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._counter = counter
        self._histogram = histogram
        self._lock = threading.Lock()
        self._f = open(self.path, "a+")
        # terminate a killed writer's torn fragment before our first record
        fd = self._f.fileno()
        size = os.fstat(fd).st_size
        self._sep = "\n" if size and os.pread(fd, 1, size - 1) != b"\n" else ""
        self.closed = False

    def append(self, record: dict) -> None:
        """Write one record, flush and fsync before returning."""
        line = encode(record)
        t0 = time.perf_counter()
        with self._lock:
            if self.closed:
                return
            self._f.write(self._sep + line)
            self._sep = ""
            self._f.flush()
            try:
                os.fsync(self._f.fileno())
            except OSError:
                pass
        if self._counter:
            metrics.counter(self._counter).inc()
        if self._histogram:
            metrics.histogram(
                self._histogram, metrics.FSYNC_BUCKETS_S
            ).observe(time.perf_counter() - t0)

    def close(self) -> None:
        with self._lock:
            if not self.closed:
                self.closed = True
                self._f.close()

    def __enter__(self) -> "Log":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Follower:
    """Incremental reader of one log; safe against a live writer.

    Each :meth:`poll` consumes only newline-terminated lines: the
    partial line of an in-progress append stays in the file for a later
    poll.  A complete line that is not a JSON object is counted in
    :attr:`torn_lines` and skipped.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.torn_lines = 0

    def poll(self) -> list:
        """The records appended since the last poll; [] when unreadable."""
        try:
            with open(self.path, "rb") as f:
                f.seek(self.offset)
                chunk = f.read()
        except OSError:
            return []
        return self.feed(chunk)

    def feed(self, chunk: bytes, final: bool = False) -> list:
        """Parse ``chunk``, the file's bytes from :attr:`offset` on.

        ``final`` consumes an unterminated tail too: no writer is left
        to finish it, so it is one more line (a torn one unless it
        happens to parse).
        """
        end = len(chunk) if final else chunk.rfind(b"\n") + 1
        self.offset += end
        records = []
        for line in chunk[:end].splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if isinstance(rec, dict):
                records.append(rec)
            else:
                self.torn_lines += 1
        return records


def replay(path) -> tuple:
    """Whole-file replay, the final poll of a fresh follower.

    Returns ``(records, torn_lines)``; raises ``OSError`` when the file
    cannot be read.
    """
    fo = Follower(path)
    return fo.feed(fo.path.read_bytes(), final=True), fo.torn_lines


# -- heartbeats -------------------------------------------------------------
#: seconds :meth:`stop` waits for a beat already in progress
_STOP_JOIN_S = 2.0


class _Beat(threading.Thread):
    """The daemon thread behind :func:`every`."""

    def __init__(self, interval: float, fn: Callable[[], None], name: str):
        super().__init__(name=name, daemon=True)
        self.interval = interval
        self.fn = fn
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.fn()
            except Exception:
                pass  # liveness must never kill the process it reports on

    def stop(self) -> None:
        """Stop beating; waits briefly for a beat in progress."""
        self._halt.set()
        self.join(_STOP_JOIN_S)


def every(
    interval: float, fn: Callable[[], None], name: str = "repro-heartbeat"
) -> threading.Thread:
    """Call ``fn`` every ``interval`` seconds on a started daemon thread.

    An exception from ``fn`` skips that beat only.  The returned
    thread's ``stop()`` ends the beating.
    """
    beat = _Beat(interval, fn, name)
    beat.start()
    return beat


#: default seconds between heartbeats ($REPRO_HEARTBEAT_S overrides;
#: invalid or non-positive values fall back here with a warning —
#: liveness monitoring and lease TTLs both derive from this interval,
#: so "disabled" is not a state the env var can express)
DEFAULT_HEARTBEAT_S = 5.0

#: raw $REPRO_HEARTBEAT_S values already warned about (once per value,
#: not once per call — the interval is consulted on every run start)
_HB_WARNED: set = set()


def heartbeat_interval() -> float:
    """The configured heartbeat period, from ``$REPRO_HEARTBEAT_S``.

    Hardened: a value that does not parse as a float, or is not
    strictly positive (NaN included), warns once and falls back to
    :data:`DEFAULT_HEARTBEAT_S` instead of silently disabling the
    liveness signal every staleness rule in :mod:`repro.obs` and
    :mod:`repro.serve` is built on.
    """
    raw = os.environ.get("REPRO_HEARTBEAT_S", "")
    if not raw:
        return DEFAULT_HEARTBEAT_S
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if value > 0:
        return value
    if raw not in _HB_WARNED:
        _HB_WARNED.add(raw)
        log.warn(
            "journal.heartbeat_env",
            f"ignoring REPRO_HEARTBEAT_S={raw!r} (need a positive "
            f"number); using the default {DEFAULT_HEARTBEAT_S:g}s",
        )
    return DEFAULT_HEARTBEAT_S
