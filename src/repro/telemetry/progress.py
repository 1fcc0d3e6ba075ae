"""A live sweep progress meter with TTY, plain, and off modes.

Three modes (``--progress=auto|plain|off``):

* ``auto`` (default) — renders ``units done/total, hits, failures,
  ETA`` over itself with ``\\r`` on an interactive terminal; when
  stderr is not a TTY (CI, ``2>log``, pipes) it emits *nothing*, so
  captured logs and golden outputs stay clean.
* ``plain`` — periodic full progress *lines* (newline-terminated, one
  every few seconds) whatever the stream is, so CI logs show a sweep
  advancing instead of going silent for minutes.
* ``off`` — nothing, ever.

ETA comes from the rolling mean of recent per-unit completion times
(window of 32), which tracks warm/cold phase changes much faster than
a global mean.

Thread-safe: the parallel engine ticks it from its dispatcher threads.
"""
from __future__ import annotations

import sys
import threading
import time
from typing import Optional

__all__ = ["ProgressLine", "MODES"]

#: accepted progress modes, in CLI order
MODES = ("auto", "plain", "off")

#: default repaint gap per mode: TTY repaints are cheap, plain lines
#: accumulate in logs so they are rationed much harder
_DEFAULT_INTERVAL_S = {"auto": 0.1, "plain": 5.0}


class ProgressLine:
    """One status line, ``\\r``-refreshed (auto/TTY) or appended (plain)."""

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream=None,
        force: Optional[bool] = None,
        window: int = 32,
        min_interval_s: Optional[float] = None,
        mode: str = "auto",
    ):
        if mode not in MODES:
            raise ValueError(f"unknown progress mode {mode!r}; one of {MODES}")
        self.total = int(total)
        self.label = label
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", lambda: False)
        if mode == "off":
            self.enabled = False
        elif mode == "plain":
            self.enabled = True if force is None else bool(force)
        else:
            self.enabled = bool(isatty()) if force is None else bool(force)
        self._min_interval = (
            min_interval_s if min_interval_s is not None
            else _DEFAULT_INTERVAL_S.get(mode, 0.1)
        )
        self.done = 0
        self.hits = 0
        self.failures = 0
        self._durations: list = []
        self._window = window
        self._last_paint = 0.0
        self._t_start = time.time()
        self._lock = threading.Lock()
        self._width = 0

    # -- updates -----------------------------------------------------------
    def tick(
        self,
        hit: bool = False,
        failed: bool = False,
        seconds: Optional[float] = None,
    ) -> None:
        """Record one finished unit (thread-safe) and maybe repaint."""
        if not self.enabled:
            return
        with self._lock:
            self.done += 1
            self.hits += hit
            self.failures += failed
            if seconds is not None:
                self._durations.append(seconds)
                if len(self._durations) > self._window:
                    del self._durations[: -self._window]
            now = time.time()
            if (
                now - self._last_paint >= self._min_interval
                or self.done >= self.total
            ):
                self._last_paint = now
                self._paint()

    def note_failure(self) -> None:
        """Bump the failure count without advancing ``done`` (the unit's
        completion still arrives through :meth:`tick`)."""
        if not self.enabled:
            return
        with self._lock:
            self.failures += 1

    def eta_s(self) -> Optional[float]:
        """Remaining seconds from the rolling per-unit mean (None = unknown)."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if self._durations:
            mean = sum(self._durations) / len(self._durations)
        elif self.done:
            mean = (time.time() - self._t_start) / self.done
        else:
            return None
        return mean * remaining

    # -- painting ----------------------------------------------------------
    def _fmt_eta(self) -> str:
        eta = self.eta_s()
        if eta is None:
            return "--"
        if eta >= 3600:
            return f"{eta / 3600:.1f}h"
        if eta >= 60:
            return f"{eta / 60:.1f}m"
        return f"{eta:.0f}s"

    def _paint(self) -> None:
        line = (
            f"{self.label}: {self.done}/{self.total} units"
            f"  {self.hits} hit(s)  {self.failures} failed"
            f"  ETA {self._fmt_eta()}"
        )
        try:
            if self.mode == "plain":
                self.stream.write(line + "\n")
            else:
                pad = " " * max(0, self._width - len(line))
                self._width = len(line)
                self.stream.write("\r" + line + pad)
            self.stream.flush()
        except (OSError, ValueError):
            self.enabled = False

    def close(self) -> None:
        """Erase the TTY line (auto) or emit the final total (plain)."""
        if not self.enabled:
            return
        with self._lock:
            try:
                if self.mode == "plain":
                    if self.done:
                        self.stream.write(
                            f"{self.label}: finished {self.done}/{self.total} "
                            f"units  {self.hits} hit(s)  {self.failures} "
                            "failed\n"
                        )
                        self.stream.flush()
                elif self._width:
                    self.stream.write("\r" + " " * self._width + "\r")
                    self.stream.flush()
            except (OSError, ValueError):
                pass
            self._width = 0
