"""Admission control: per-tenant quotas, backpressure, circuit breakers.

Every submission passes three gates *before* anything is journaled or
queued, and a rejection is atomic — either the whole submission is
admitted or none of it is:

1. **Per-tenant quotas** — each tenant may keep at most
   ``max_outstanding`` units queued-or-leased at once, and at most
   ``max_inflight`` leases running concurrently (the latter is enforced
   at dispatch: a unit whose owner is at its in-flight cap is skipped
   until a slot frees).  Over-quota submissions are rejected with a
   ``429``-style verdict naming the limit.
2. **Queue backpressure** — a global bound on queued units protects the
   daemon's memory and the WAL's growth; past it, *every* tenant gets
   ``503 backpressure`` until the queue drains.
3. **Circuit breakers** — one breaker per device backend.  A device
   whose units keep failing terminally (``threshold`` consecutive
   failures, successes reset the count) trips *open*: submissions
   targeting it are rejected for ``cooldown`` seconds, after which the
   breaker goes *half-open* and admits again; the next success on the
   device closes it, the next failure re-opens it.  A crashing backend
   sheds load at the admission surface instead of eating the queue.
"""
from __future__ import annotations

import dataclasses
import time
from typing import Optional

__all__ = [
    "AdmissionVerdict",
    "TenantQuota",
    "CircuitBreaker",
    "BreakerBoard",
    "REJECT_QUOTA",
    "REJECT_BACKPRESSURE",
    "REJECT_BREAKER",
    "REJECT_DRAINING",
]

#: rejection reasons, mapped onto HTTP-ish status codes by the API layer
REJECT_QUOTA = "quota"  # 429
REJECT_BACKPRESSURE = "backpressure"  # 503
REJECT_BREAKER = "breaker_open"  # 503
REJECT_DRAINING = "draining"  # 503


@dataclasses.dataclass
class AdmissionVerdict:
    ok: bool
    reason: str = ""
    detail: str = ""

    @property
    def status(self) -> int:
        """The HTTP status code this verdict maps onto."""
        if self.ok:
            return 200
        return 429 if self.reason == REJECT_QUOTA else 503


@dataclasses.dataclass
class TenantQuota:
    """Per-tenant admission limits (one shared default, no favorites)."""

    #: max units queued-or-leased at once (admission-time gate)
    max_outstanding: int = 64
    #: max concurrent leases (dispatch-time gate)
    max_inflight: int = 4

    def admit(self, outstanding: int, new: int) -> AdmissionVerdict:
        if outstanding + new > self.max_outstanding:
            return AdmissionVerdict(
                False, REJECT_QUOTA,
                f"{outstanding} outstanding + {new} new > "
                f"max_outstanding {self.max_outstanding}",
            )
        return AdmissionVerdict(True)


class CircuitBreaker:
    """Three-state breaker for one device backend."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = max(1, int(threshold))
        self.cooldown = max(0.0, float(cooldown))
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    def _maybe_half_open(self, now: float) -> None:
        if (
            self.state == self.OPEN
            and self.opened_at is not None
            and now - self.opened_at >= self.cooldown
        ):
            self.state = self.HALF_OPEN

    def allows(self, now: Optional[float] = None) -> bool:
        """May new work targeting this device be admitted right now?"""
        now = time.monotonic() if now is None else now
        self._maybe_half_open(now)
        return self.state != self.OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self.opened_at = None

    def record_failure(self, now: Optional[float] = None) -> bool:
        """Count one terminal failure; returns True when this trips it."""
        now = time.monotonic() if now is None else now
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        return False

    def as_dict(self, now: Optional[float] = None) -> dict:
        now = time.monotonic() if now is None else now
        self._maybe_half_open(now)
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
            "cooldown_remaining_s": (
                max(0.0, self.cooldown - (now - self.opened_at))
                if self.state == self.OPEN and self.opened_at is not None
                else 0.0
            ),
        }


class BreakerBoard:
    """The daemon's breakers, one per device name, created on demand."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = threshold
        self.cooldown = cooldown
        self._breakers: dict = {}

    def get(self, device: str) -> CircuitBreaker:
        b = self._breakers.get(device)
        if b is None:
            b = self._breakers[device] = CircuitBreaker(
                self.threshold, self.cooldown
            )
        return b

    def open_devices(self, devices, now: Optional[float] = None) -> list:
        """The subset of ``devices`` whose breaker currently rejects."""
        return sorted(
            {d for d in devices if not self.get(d).allows(now)}
        )

    def as_dict(self) -> dict:
        return {d: b.as_dict() for d, b in sorted(self._breakers.items())}
