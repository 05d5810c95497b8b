"""Concurrent writers against the result store.

The campaign server (:mod:`repro.serve`) multiplexes many sessions over
one process and one cache directory, and two servers may share one
state directory, so the durability layer has to survive contention it
never saw under single-campaign CLI use: N threads and N processes
putting/getting the *same* fingerprint — in the shared cache or in one
session's directory — must never corrupt an entry or observe a partial
file (the fsync + ``os.replace`` protocol under contention), and the
``.json.corrupt`` quarantine must stay silent when nothing is corrupt.
"""

import os
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import ScaledArrayConfig
from repro.exec import (
    CellCache,
    attack_cell,
    cell_fingerprint,
    decode_result,
    encode_result,
    run_cells,
)
from repro.serve.session import SessionStore

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _cell(seed: int = 11):
    return attack_cell("nowl", "scan", scaled=SCALED, seed=seed)


@pytest.fixture(scope="module")
def payload():
    """One real result, encoded so it crosses the spawn boundary."""
    result = run_cells([_cell()], jobs=1)[0]
    kind, record = encode_result(result)
    return kind, record


def _cache_contend(directory: str, kind: str, record: dict, rounds: int) -> int:
    """Worker body: hammer one fingerprint; returns corrupt count."""
    cache = CellCache(directory)
    cell = _cell()
    result = decode_result(kind, record)
    for _ in range(rounds):
        cache.put(cell, result)
        got = cache.get(cell)
        # A reader can never see a partial file: os.replace is atomic,
        # so every get() decodes a complete entry (identical bytes here,
        # since every writer writes the same result).
        assert got == result
    return cache.corrupt


class TestCacheContention:
    """Satellite: concurrent CellCache writers on one fingerprint."""

    def test_threads_same_fingerprint(self, tmp_path, payload):
        kind, record = payload
        directory = str(tmp_path / "cache")
        corrupt = []
        errors = []

        def work():
            try:
                corrupt.append(_cache_contend(directory, kind, record, rounds=50))
            except BaseException as error:  # noqa: B036 - recorded for assert
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert sum(corrupt) == 0
        # Exactly one entry, decodable, and no orphaned temp files.
        cache = CellCache(directory)
        assert len(cache) == 1
        assert cache.get(_cell()) == decode_result(kind, record)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []

    def test_processes_same_fingerprint(self, tmp_path, payload):
        kind, record = payload
        directory = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=4) as pool:
            corrupt = list(
                pool.map(
                    _cache_contend,
                    [directory] * 4,
                    [kind] * 4,
                    [record] * 4,
                    [20] * 4,
                )
            )
        assert sum(corrupt) == 0
        cache = CellCache(directory)
        assert len(cache) == 1
        assert cache.get(_cell()) == decode_result(kind, record)
        assert cache.corrupt == 0

    def test_quarantine_still_works_under_contention(self, tmp_path, payload):
        """A genuinely corrupt entry is quarantined exactly as before —
        contention hardening must not mask real corruption."""
        kind, record = payload
        cache = CellCache(str(tmp_path))
        cell = _cell()
        result = decode_result(kind, record)
        cache.put(cell, result)
        path = cache.path_for(cell_fingerprint(cell))
        with open(path, "wb") as handle:
            handle.write(b"\x00not json\x00")
        assert cache.get(cell) is None
        assert cache.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")
        cache.put(cell, result)
        assert cache.get(cell) == result

    def test_two_session_stores_share_one_session(self, tmp_path, payload):
        """Two servers on one state dir share a session safely: their
        stores write one directory concurrently, and every entry either
        wrote is readable afterwards."""
        kind, record = payload
        result = decode_result(kind, record)
        root = str(tmp_path / "sessions")
        stores = [SessionStore(root), SessionStore(root)]
        seeds = list(range(100, 112))
        errors = []

        def work(store):
            try:
                session = store.open("shared")
                for seed in seeds:
                    cell = _cell(seed)
                    session.put(cell, result, cell_fingerprint(cell))
                    assert session.get(cell) == result
            except BaseException as error:  # noqa: B036 - recorded for assert
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(store,))
            for store in stores * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        reopened = SessionStore(root).open("shared")
        assert len(reopened) == len(seeds)
        for seed in seeds:
            assert reopened.get(_cell(seed)) == result
        assert reopened.corrupt == 0
        directory = reopened.directory
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
