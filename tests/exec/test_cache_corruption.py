"""Cache hardening: corrupt entries behave as misses + quarantine.

Satellite: truncated JSON, valid-JSON-wrong-schema, and
schema-version-mismatch entries are each quarantined (not crashes), and
a warm rerun after quarantine is byte-identical to a cold run.
"""
import json

import pytest

from repro import exec as rexec
from repro.arch.specs import GTX480
from repro.errors import CacheCorruptionError
from repro.exec.cache import SCHEMA_VERSION, validate_payload

from .test_engine import canon

UNIT = rexec.make_unit("TranP", "cuda", GTX480, "small")


def _populate(tmp_path):
    """Cold-run UNIT into a disk cache; returns (digest, entry path)."""
    ex = rexec.SweepExecutor(cache=tmp_path)
    ex.run_unit(UNIT)
    digest = ex.digest_of(UNIT)
    path = ex.cache.path_for(digest)
    assert path.exists()
    return digest, path


def _fresh_lookup(tmp_path, digest):
    return rexec.ResultCache(tmp_path).get(digest)


class TestValidatePayload:
    def test_accepts_round_trip(self):
        payload = rexec.result_to_json(rexec.execute(UNIT))
        validate_payload(payload)  # no raise
        assert payload["schema"] == SCHEMA_VERSION

    def test_rejects_non_dict(self):
        with pytest.raises(CacheCorruptionError):
            validate_payload([1, 2, 3])

    def test_rejects_missing_keys(self):
        with pytest.raises(CacheCorruptionError, match="missing keys"):
            validate_payload({"schema": SCHEMA_VERSION, "unit": {}})

    def test_rejects_wrong_schema_version(self):
        payload = rexec.result_to_json(rexec.execute(UNIT))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(CacheCorruptionError, match="schema version"):
            validate_payload(payload)

    def test_result_from_json_canonicalises_an_old_unit_block(self):
        # an entry written before default options folded away spells one out
        payload = rexec.result_to_json(rexec.execute(UNIT))
        payload["unit"]["options"] = [["use_local", True]]
        assert rexec.result_from_json(payload).unit == UNIT

    def test_result_from_json_raises_typed_not_keyerror(self):
        with pytest.raises(CacheCorruptionError):
            rexec.result_from_json({"bogus": True})


class TestQuarantine:
    def test_truncated_json_is_miss_plus_quarantine(self, tmp_path, capsys):
        digest, path = _populate(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn write
        assert _fresh_lookup(tmp_path, digest) is None
        qfile = tmp_path / "quarantine" / path.name
        assert qfile.exists()
        assert "unparseable JSON" in qfile.with_suffix(".reason").read_text()
        assert not path.exists()
        assert "quarantined corrupt cache entry" in capsys.readouterr().err

    def test_wrong_shape_json_is_miss_plus_quarantine(self, tmp_path):
        digest, path = _populate(tmp_path)
        path.write_text(json.dumps({"totally": "unrelated"}))
        assert _fresh_lookup(tmp_path, digest) is None
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_schema_version_mismatch_is_miss_plus_quarantine(self, tmp_path):
        digest, path = _populate(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        assert _fresh_lookup(tmp_path, digest) is None
        qdir = tmp_path / "quarantine"
        assert (qdir / path.name).exists()
        assert "schema version" in (qdir / path.name).with_suffix(
            ".reason"
        ).read_text()

    def test_quarantined_entries_do_not_count(self, tmp_path):
        digest, path = _populate(tmp_path)
        cache = rexec.ResultCache(tmp_path)
        assert len(cache) == 1
        path.write_text("{broken")
        assert cache.get(digest) is None
        assert len(cache) == 0

    def test_warm_rerun_after_quarantine_matches_cold(self, tmp_path):
        digest, path = _populate(tmp_path)
        cold = rexec.SweepExecutor(cache=tmp_path).run_unit(UNIT)
        # corrupt the entry; the next executor re-simulates and re-stores
        path.write_text("}{ not json")
        ex = rexec.SweepExecutor(cache=tmp_path)
        refilled = ex.run_unit(UNIT)
        assert not refilled.cached  # served by simulation, not the cache
        assert ex.stats.misses == 1
        assert canon(refilled, wall=False) == canon(cold, wall=False)
        # ... and the re-stored entry now serves byte-identical hits
        warm = rexec.SweepExecutor(cache=tmp_path).run_unit(UNIT)
        assert warm.cached
        assert canon(warm) == canon(refilled)


class TestAtomicWrites:
    """Satellite: cache writes are atomic (tmp + fsync + os.replace)."""

    def test_put_leaves_no_tmp_behind(self, tmp_path):
        digest, path = _populate(tmp_path)
        leftovers = list(tmp_path.glob("[0-9a-f][0-9a-f]/*.tmp.*"))
        assert leftovers == []

    def test_put_cleans_tmp_on_write_failure(self, tmp_path, monkeypatch):
        cache = rexec.ResultCache(tmp_path)
        payload = rexec.result_to_json(rexec.execute(UNIT))
        import os as _os

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.put("ab" * 32, payload)
        monkeypatch.undo()
        assert list(tmp_path.glob("[0-9a-f][0-9a-f]/*")) == []

    def test_purge_tmp_sweeps_corpses_not_live_writers(self, tmp_path):
        import os as _os

        cache = rexec.ResultCache(tmp_path)
        shard = tmp_path / "ab"
        shard.mkdir()
        corpse = shard / ("x" * 64 + ".tmp.99999999")  # a dead pid's tmp
        corpse.write_text("{torn")
        live = shard / ("y" * 64 + f".tmp.{_os.getpid()}")  # our own
        live.write_text("{in progress")
        assert cache.purge_tmp() == 1
        assert not corpse.exists() and live.exists()
        assert cache.purge_tmp() == 0  # idempotent

    def test_purge_tmp_on_missing_root(self, tmp_path):
        assert rexec.ResultCache(tmp_path / "never-created").purge_tmp() == 0

    def test_purge_tmp_never_touches_entries(self, tmp_path):
        digest, path = _populate(tmp_path)
        cache = rexec.ResultCache(tmp_path)
        cache.purge_tmp()
        assert path.exists()
        assert cache.get(digest) is not None


class TestCanonicalResults:
    """The deterministic results document the resume test compares."""

    def test_canonical_payload_zeroes_only_wall_clocks(self):
        payload = rexec.result_to_json(rexec.execute(UNIT))
        out = rexec.canonical_payload(payload)
        assert out["seconds"] == 0.0
        assert out["profile"]["compile_s"] == 0.0
        # nothing else changed, and the input was not mutated
        redo = json.loads(json.dumps(payload))
        redo["seconds"] = 0.0
        redo["profile"]["compile_s"] = 0.0
        assert out == redo
        assert payload["seconds"] != 0.0 or payload is not out

    def test_canonical_results_json_order_independent(self):
        ex = rexec.SweepExecutor()
        from repro.arch.specs import GTX280

        units = [
            rexec.make_unit("TranP", api, dev, "small")
            for api in ("cuda", "opencl")
            for dev in (GTX280, GTX480)
        ]
        results = [ex.run_unit(u) for u in units]
        a = rexec.canonical_results_json(results)
        b = rexec.canonical_results_json(list(reversed(results)))
        assert a == b
        doc = json.loads(a)
        assert doc["schema"] == SCHEMA_VERSION
        assert len(doc["results"]) == len(units)

    def test_canonical_json_identical_across_independent_runs(self):
        a = rexec.canonical_results_json(
            [rexec.SweepExecutor().run_unit(UNIT)]
        )
        b = rexec.canonical_results_json(
            [rexec.SweepExecutor().run_unit(UNIT)]
        )
        assert a == b
