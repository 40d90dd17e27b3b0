"""Measurer: journal roundtrip, idempotent ingestion, merged fingerprint."""

from __future__ import annotations

import pytest

from repro.harness.cache import simulation_fingerprint
from repro.harness.runner import run_once
from repro.service.measurer import Measurer
from repro.service.scheduler import run_key, workload_key
from repro.telemetry.jsonl import result_to_line

from tests.service.conftest import make_config


@pytest.fixture(scope="module")
def runs(problem, cost):
    configs = [make_config(seed=s) for s in range(3)]
    wkey = workload_key(problem, cost)
    return wkey, [
        (run_key(wkey, config), run_once(problem, cost, config))
        for config in configs
    ]


class TestVolatile:
    def test_ingest_and_get(self, runs):
        wkey, items = runs
        m = Measurer()
        m.ingest(wkey, items)
        assert len(m) == 3
        for key, result in items:
            assert m.has(key)
            assert m.get(key) is result

    def test_reingest_is_idempotent(self, runs):
        wkey, items = runs
        m = Measurer()
        m.ingest(wkey, items)
        first = m.get(items[0][0])
        m.ingest(wkey, items)
        assert len(m) == 3
        assert m.get(items[0][0]) is first


class TestDurable:
    def test_journal_roundtrip_is_bitwise(self, tmp_path, runs):
        wkey, items = runs
        m = Measurer(tmp_path)
        m.ingest(wkey, items)
        m.close()

        replayed = Measurer(tmp_path)
        assert replayed.load_workload(wkey) == 3
        for key, result in items:
            restored = replayed.get(key)
            assert simulation_fingerprint(restored) == \
                simulation_fingerprint(result)
            assert result_to_line(restored) == result_to_line(result)
        replayed.close()

    def test_reingest_after_replay_appends_nothing(self, tmp_path, runs):
        wkey, items = runs
        m = Measurer(tmp_path)
        m.ingest(wkey, items)
        m.close()
        path = tmp_path / f"results-{wkey}.jsonl"
        size = path.stat().st_size

        replayed = Measurer(tmp_path)
        replayed.load_workload(wkey)
        replayed.ingest(wkey, items)
        replayed.close()
        assert path.stat().st_size == size

    def test_corrupt_row_skipped_with_warning(self, tmp_path, runs):
        wkey, items = runs
        m = Measurer(tmp_path)
        m.ingest(wkey, items)
        m.close()
        path = tmp_path / f"results-{wkey}.jsonl"
        with path.open("a") as fh:
            fh.write('{"half a ro')  # torn by a crash mid-append
        replayed = Measurer(tmp_path)
        with pytest.warns(RuntimeWarning, match="skipping unreadable row"):
            assert replayed.load_workload(wkey) == 3
        replayed.close()


class TestMerged:
    def test_fingerprint_is_order_sensitive(self, runs):
        wkey, items = runs
        m = Measurer()
        m.ingest(wkey, items)
        order = [key for key, _ in items]
        assert m.merged_fingerprint(order) != \
            m.merged_fingerprint(list(reversed(order)))
