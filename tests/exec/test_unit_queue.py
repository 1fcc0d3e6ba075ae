"""The unit queue both front ends dispatch from, as a state machine.

hypothesis drives one :class:`~repro.exec.dispatch.UnitQueue` through
pushes, takes under an ``eligible`` predicate, scripted outcomes
(0/1/75, a dead worker, a worker that could not be forked) and
``put_back``, on a fake clock and a condition whose ``wait`` returns at
once: no step sleeps.  A model of what was pushed, queued and running
checks every take against the queue's contract.
"""
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exec.dispatch import (
    CRASHED,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_TRANSIENT,
    POLL_S,
    UNAVAILABLE,
    UnitQueue,
    retry_delay,
)

RETRIES = 2
BACKOFF = 1.0
OUTCOMES = [EXIT_OK, EXIT_FAILED, EXIT_TRANSIENT, CRASHED, UNAVAILABLE]


class InstantCondition(threading.Condition):
    """A condition whose ``wait`` records its timeout instead of sleeping."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        return False


def reply_for(code):
    if code == EXIT_OK:
        return {"ok": {}}
    return {"err": {"message": f"scripted outcome {code}"}}


class UnitQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.cond = InstantCondition()
        self.queue = UnitQueue(
            RETRIES, BACKOFF, cond=self.cond, clock=lambda: self.now,
        )
        self.order = []  # the model's FIFO of queued digests
        self.due = {}  # digest -> fake time it may run again
        self.running = {}  # digest -> Job
        self.next_attempt = {}  # digest -> attempt its next take carries
        self.counted = {}  # digest -> takes that counted (not put back)
        self.ended = {}  # digest -> ["done" | "fail", ...]
        self.blocked = set()  # digests ``eligible`` refuses

    def eligible(self, digest):
        return digest not in self.blocked

    def ready(self):
        return [
            d for d in self.order
            if self.due.get(d, 0.0) <= self.now and self.eligible(d)
        ]

    # -- steps -------------------------------------------------------------
    @rule()
    def push(self):
        d = f"d{len(self.next_attempt)}"
        self.queue.push(d, {"n": d}, f"unit {d}")
        self.order.append(d)
        self.next_attempt[d] = 1
        self.counted[d] = 0

    @rule(dt=st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    def advance(self, dt):
        self.now += dt

    @precondition(lambda self: self.next_attempt)
    @rule(i=st.integers(0, 63))
    def toggle_eligible(self, i):
        d = sorted(self.next_attempt)[i % len(self.next_attempt)]
        self.blocked ^= {d}

    @rule()
    def take(self):
        asked = []

        def stop():  # one look, then give up
            asked.append(True)
            return len(asked) > 1

        expected = self.ready()
        waits = len(self.cond.waits)
        job = self.queue.take(stop, self.eligible)
        if not expected:
            assert job is None
            future = [t for t in self.due.values() if t > self.now]
            wake = min(future, default=self.now + POLL_S)
            assert self.cond.waits[waits:] == [min(POLL_S, wake - self.now)]
            return
        d = expected[0]  # first in line that is due and eligible
        assert job is not None and job.digest == d
        assert d not in self.running
        assert self.due.get(d, 0.0) <= self.now
        assert job.attempt == self.next_attempt[d]
        self.order.remove(d)
        self.due.pop(d, None)
        self.running[d] = job
        self.counted[d] += 1

    @precondition(lambda self: self.running)
    @rule(i=st.integers(0, 63), code=st.sampled_from(OUTCOMES))
    def settle(self, i, code):
        job = self.running.pop(sorted(self.running)[i % len(self.running)])
        d = job.digest
        verdict = self.queue.settle(job, code, reply_for(code))
        if verdict == "retry":
            assert code in (EXIT_TRANSIENT, CRASHED, UNAVAILABLE)
            assert job.attempt <= RETRIES
            self.order.append(d)
            self.due[d] = self.now + retry_delay(BACKOFF, job.attempt, d)
            self.next_attempt[d] = job.attempt + 1
            return
        assert verdict == ("done" if code == EXIT_OK else "fail")
        if verdict == "fail" and code != EXIT_FAILED:
            assert job.attempt == RETRIES + 1  # retries spent
        self.ended.setdefault(d, []).append(verdict)

    @precondition(lambda self: self.running)
    @rule(i=st.integers(0, 63))
    def put_back(self, i):
        job = self.running.pop(sorted(self.running)[i % len(self.running)])
        self.queue.put_back(job)
        self.order.insert(0, job.digest)
        self.counted[job.digest] -= 1  # it never ran

    # -- invariants ----------------------------------------------------------
    @invariant()
    def running_matches(self):
        assert set(self.queue.running) == set(self.running)
        assert len(self.queue) == len(self.order) + len(self.running)
        assert not set(self.order) & set(self.running)
        assert len(set(self.order)) == len(self.order)

    @invariant()
    def attempts_count_takes(self):
        for d, n in self.counted.items():
            assert n <= RETRIES + 1
            job = self.running.get(d)
            if job is not None:
                assert job.attempt == n

    def teardown(self):
        # run everything left to its end: each take's worker dies, so
        # every unit spends its retries and fails
        self.blocked.clear()
        while self.order or self.running:
            for _ in range(len(self.running)):
                self.settle(0, CRASHED)
            self.now += 10.0
            while self.ready():
                self.take()
        assert len(self.queue) == 0
        for d in self.next_attempt:
            assert len(self.ended.get(d, [])) == 1, (d, self.ended.get(d))
            assert 1 <= self.counted[d] <= RETRIES + 1


UnitQueueMachine.TestCase.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=40, deadline=None,
)
TestUnitQueue = UnitQueueMachine.TestCase
