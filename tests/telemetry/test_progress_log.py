"""Progress meter TTY gating + structured logger behavior."""
import io

import pytest

from repro import exec as rexec
from repro.arch.specs import GTX480
from repro.prof.report import render_sweep
from repro.telemetry import log as tlog
from repro.telemetry.progress import ProgressLine


class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestProgressLine:
    def test_non_tty_stream_emits_nothing(self):
        buf = io.StringIO()
        p = ProgressLine(10, stream=buf)
        assert not p.enabled
        p.tick(hit=True)
        p.note_failure()
        p.close()
        assert buf.getvalue() == ""

    def test_tty_stream_paints_and_erases(self):
        buf = _Tty()
        p = ProgressLine(3, stream=buf, min_interval_s=0.0)
        assert p.enabled
        p.tick(seconds=0.1)
        p.tick(hit=True, seconds=0.1)
        out = buf.getvalue()
        assert "2/3 units" in out
        assert "1 hit(s)" in out
        assert "\r" in out
        p.close()
        # the close repaint ends on a bare \r so the next line overwrites
        assert buf.getvalue().endswith("\r")

    def test_force_overrides_gating(self):
        buf = io.StringIO()
        p = ProgressLine(2, stream=buf, force=True, min_interval_s=0.0)
        p.tick()
        assert "1/2" in buf.getvalue()

    def test_eta_from_rolling_mean(self):
        p = ProgressLine(10, stream=io.StringIO(), force=True)
        for _ in range(5):
            p.tick(seconds=2.0)
        assert p.eta_s() == pytest.approx(10.0)  # 5 left x 2s mean
        assert p._fmt_eta() == "10s"

    def test_failure_accounting_distinct_from_done(self):
        p = ProgressLine(4, stream=io.StringIO(), force=True)
        p.note_failure()      # terminal failure recorded...
        p.tick(failed=True)   # ...then its completion tick
        assert p.done == 1 and p.failures == 2


class TestProgressModes:
    def test_plain_mode_emits_lines_without_a_tty(self):
        buf = io.StringIO()
        p = ProgressLine(2, stream=buf, mode="plain", min_interval_s=0.0)
        assert p.enabled  # plain works for CI logs: no TTY required
        p.tick(seconds=0.1)
        p.tick(hit=True, seconds=0.1)
        p.close()
        lines = buf.getvalue().splitlines()
        assert "\r" not in buf.getvalue()
        assert "sweep: 1/2 units" in lines[0]
        assert lines[-1].startswith("sweep: finished 2/2 units")

    def test_plain_mode_rations_repaints(self):
        buf = io.StringIO()
        p = ProgressLine(100, stream=buf, mode="plain", min_interval_s=3600.0)
        for _ in range(50):
            p.tick()
        # one initial paint; the rest are rate-limited out of the log
        assert buf.getvalue().count("\n") == 1

    def test_off_mode_emits_nothing_even_on_tty(self):
        buf = _Tty()
        p = ProgressLine(2, stream=buf, mode="off")
        assert not p.enabled
        p.tick()
        p.close()
        assert buf.getvalue() == ""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown progress mode"):
            ProgressLine(1, mode="fancy")

    def test_progress_mode_resolution(self):
        import argparse

        from repro.telemetry import progress_mode

        ns = argparse.Namespace(progress="plain", quiet=False)
        assert progress_mode(ns) == "plain"
        ns = argparse.Namespace(progress="plain", quiet=True)
        assert progress_mode(ns) == "off"  # --quiet beats --progress
        assert progress_mode(argparse.Namespace()) == "auto"


class TestLogger:
    def test_threshold_gates_output(self, capsys):
        tlog.set_verbosity(quiet=True)
        try:
            tlog.info("should.vanish")
            tlog.error("should.show", "boom")
        finally:
            tlog.set_verbosity()
        err = capsys.readouterr().err
        assert "should.vanish" not in err
        assert "repro[error] should.show: boom" in err

    def test_verbose_enables_debug(self, capsys):
        tlog.set_verbosity(verbose=True)
        try:
            tlog.debug("dbg.event", answer=42)
        finally:
            tlog.set_verbosity()
        assert "repro[debug] dbg.event: answer=42" in capsys.readouterr().err

    def test_fields_render_single_line(self, capsys):
        tlog.warn("multi.field", "free text", a=1, b="two words")
        err = capsys.readouterr().err
        line = [l for l in err.splitlines() if "multi.field" in l][0]
        assert line == "repro[warn] multi.field: free text a=1 b='two words'"

    def test_level_accessors(self):
        tlog.set_level("warn")
        try:
            assert tlog.level() == "warn"
        finally:
            tlog.set_verbosity()


class TestRenderSweepCounters:
    def test_cache_line_answers_was_the_cache_warm(self, tmp_path):
        unit = rexec.make_unit("TranP", "cuda", GTX480, "small")
        ex = rexec.SweepExecutor(cache=tmp_path, progress="off")
        ex.run_unit(unit)   # cold: simulate + store
        ex.run_unit(unit)   # memo hit
        ex2 = rexec.SweepExecutor(cache=tmp_path, progress="off")
        ex2.run_unit(unit)  # disk hit
        cold = render_sweep(ex.stats)
        warm = render_sweep(ex2.stats)
        assert "cache: 1 memo hit(s), 0 disk hit(s)" in cold
        assert "cache: 0 memo hit(s), 1 disk hit(s)" in warm
        assert "sim time served from cache" in warm
        assert ex2.stats.cache_serve_seconds > 0

    def test_quarantine_count_surfaces(self, tmp_path):
        unit = rexec.make_unit("TranP", "cuda", GTX480, "small")
        ex = rexec.SweepExecutor(
            cache=tmp_path, faults=f"corrupt:{unit.label()}", progress="off"
        )
        ex.run_unit(unit)
        ex2 = rexec.SweepExecutor(cache=tmp_path, progress="off")
        ex2.run_unit(unit)  # quarantines, then re-simulates
        assert ex2.stats.quarantined == 1
        assert "1 quarantined" in render_sweep(ex2.stats)
