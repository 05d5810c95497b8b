"""Tests for the result store (:class:`repro.exec.cache.CellCache`) and
the result codec every store shares."""

import json
import os

import pytest

from repro.config import ScaledArrayConfig
from repro.exec import CellCache, attack_cell, cell_fingerprint
from repro.exec.cache import decode_result, encode_result
from repro.pcm.faults import FirstFailure
from repro.sim.lifetime import LifetimeResult

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _result(demand=100, with_failure=True):
    failure = FirstFailure(3, demand, 500) if with_failure else None
    return LifetimeResult(
        scheme="twl",
        workload="scan",
        n_pages=64,
        endurance_mean=1000.0,
        demand_writes=demand,
        device_writes=demand + 5,
        failed=with_failure,
        failure=failure,
    )


def _cell():
    return attack_cell("nowl", "scan", scaled=SCALED, seed=11)


def _round_trip(result):
    """Encode, pass through JSON text as a store does, decode."""
    kind, payload = encode_result(result)
    return decode_result(kind, json.loads(json.dumps(payload, sort_keys=True)))


class TestResultCache:
    def test_roundtrip_with_failure(self):
        result = _round_trip(_result())
        assert result == _result()
        assert result.demand_writes == 100
        assert result.failure.physical_page == 3
        assert result.lifetime_fraction == pytest.approx(100 / 64000)

    def test_roundtrip_without_failure(self):
        result = _round_trip(_result(with_failure=False))
        assert result == _result(with_failure=False)
        assert result.failure is None

    def test_missing_key(self, tmp_path):
        cache = CellCache(str(tmp_path))
        assert cache.get(_cell()) is None
        assert cache.get(_cell()) is None
        assert cache.misses == 2
        assert cache.corrupt == 0

    def test_corrupt_file_rejected(self, tmp_path):
        cache = CellCache(str(tmp_path))
        path = cache.path_for(cell_fingerprint(_cell()))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(_cell()) is None
        assert cache.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")

    def test_version_checked(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.put(_cell(), _result())
        path = cache.path_for(cell_fingerprint(_cell()))
        with open(path) as handle:
            record = json.load(handle)
        record["format"] = 99
        with open(path, "w") as handle:
            json.dump(record, handle)
        # An entry of another format is a plain miss, never decoded.
        assert cache.get(_cell()) is None
        assert cache.corrupt == 0

    def test_atomic_save_leaves_no_temp(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.put(_cell(), _result())
        assert os.listdir(str(tmp_path)) == [f"{cell_fingerprint(_cell())}.json"]
        assert CellCache(str(tmp_path)).get(_cell()) == _result()

    def test_put_fsyncs_before_rename(self, monkeypatch, tmp_path):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.exec.cache.os.fsync", spy_fsync)
        monkeypatch.setattr("repro.exec.cache.os.replace", spy_replace)
        CellCache(str(tmp_path)).put(_cell(), _result())
        assert calls == ["fsync", "replace"]
