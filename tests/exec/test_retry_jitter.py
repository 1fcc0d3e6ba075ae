"""Seeded retry jitter: deterministic, bounded, digest-decorrelated."""
from repro.exec.dispatch import retry_delay


class TestRetryDelay:
    def test_no_digest_is_pure_exponential(self):
        assert retry_delay(0.1, 1) == 0.1
        assert retry_delay(0.1, 2) == 0.2
        assert retry_delay(0.1, 3) == 0.4

    def test_same_inputs_same_delay(self):
        a = retry_delay(0.1, 2, "deadbeef")
        b = retry_delay(0.1, 2, "deadbeef")
        assert a == b  # reproducible in tests, logs, and reruns

    def test_jitter_stays_within_half_to_three_halves(self):
        for attempt in (1, 2, 3, 4):
            base = 0.1 * 2 ** (attempt - 1)
            for digest in ("aaa", "bbb", "ccc", "deadbeef"):
                d = retry_delay(0.1, attempt, digest)
                assert 0.5 * base <= d < 1.5 * base

    def test_different_digests_decorrelate(self):
        # the point of seeding by digest: concurrent retriers of
        # different units do not thundering-herd on the same schedule
        delays = {retry_delay(0.1, 1, f"digest-{i}") for i in range(16)}
        assert len(delays) > 8

    def test_different_attempts_decorrelate(self):
        d1 = retry_delay(0.1, 1, "deadbeef") / 0.1
        d2 = retry_delay(0.1, 2, "deadbeef") / 0.2
        assert d1 != d2  # fresh roll per attempt, not a fixed factor

    def test_zero_backoff_is_zero(self):
        assert retry_delay(0.0, 3, "deadbeef") == 0.0
        assert retry_delay(-1.0, 2, "deadbeef") == 0.0
