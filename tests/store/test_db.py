"""Tests for the SQLite result store: content addressing, dedup
semantics, and the typed query API."""

from __future__ import annotations

import json
import math

import pytest

from repro import identity
from repro.errors import ConfigurationError
from repro.store import FailureCounts, GroupKey, ResultStore, ingest_path, row_digest
from repro.store import db as db_module
from repro.telemetry.jsonl import read_jsonl


def parsed_rows(path):
    """``(decoded row, parsed line)`` per line: what the ingester hands
    ``insert_row``."""
    return [
        (identity.decode_row(encoded), encoded)
        for encoded in map(json.loads, path.read_text().splitlines())
    ]


@pytest.fixture
def store(sweep_jsonl):
    with ResultStore(":memory:") as s:
        ingest_path(s, sweep_jsonl)
        yield s


class TestRowDigest:
    def test_stable_across_encode_decode(self, sweep_jsonl):
        (row,) = read_jsonl(sweep_jsonl)[:1]
        assert row_digest(row) == row_digest(dict(row))

    def test_wall_clock_fields_excluded(self, sweep_jsonl):
        # Re-running the same config costs different wall time but is
        # the same sample — the address must not move.
        (row,) = read_jsonl(sweep_jsonl)[:1]
        jittered = dict(row)
        jittered["wall_seconds"] = 123.456
        jittered["profile"] = {"totals": {"simulate": 9.9}}
        assert row_digest(jittered) == row_digest(row)

    def test_provenance_included(self, sweep_jsonl):
        # Same config from a different tree/host is a *new* sample.
        (row,) = read_jsonl(sweep_jsonl)[:1]
        foreign = dict(row)
        foreign["provenance"] = {**(row.get("provenance") or {}),
                                 "hostname": "elsewhere"}
        assert row_digest(foreign) != row_digest(row)

    def test_simulation_fields_included(self, sweep_jsonl):
        (row,) = read_jsonl(sweep_jsonl)[:1]
        changed = dict(row)
        changed["n_updates"] = int(row["n_updates"]) + 1
        assert row_digest(changed) != row_digest(row)


class TestInsert:
    def test_reinsert_is_noop(self, store, sweep_jsonl):
        before = store.count()
        for row, encoded in parsed_rows(sweep_jsonl):
            assert store.insert_row(row, encoded, source="again") is False
        assert store.count() == before

    def test_rejects_non_result_rows(self, store):
        with pytest.raises(ConfigurationError, match="config/report"):
            store.insert_row({"n_updates": 3}, {"n_updates": 3}, source="junk")

    def test_nan_stored_as_null(self, store):
        # HOGWILD is lock-free: mean_lock_wait is NaN in the row, and
        # sqlite must see NULL, not a poisoned float.
        rows = store._conn.execute(
            "SELECT mean_lock_wait FROM runs WHERE algorithm = 'HOG'"
        ).fetchall()
        assert rows and all(v is None for (v,) in rows)

    def test_duplicate_leaves_identity_as_first_written(self, sweep_jsonl):
        # Identity columns are first-writer-wins, like ``source``: a
        # duplicate neither fills a NULL nor replaces a value.
        keyed, bare = parsed_rows(sweep_jsonl)[:2]
        with ResultStore(":memory:") as s:
            assert s.insert_row(*keyed, source="svc", run_key="wk:abc", workload="wk")
            assert s.insert_row(*bare, source="plain.jsonl")
            for pair in (keyed, bare):
                assert s.insert_row(
                    *pair, source="later", run_key="other:key", workload="other"
                ) is False
            assert s._conn.execute(
                "SELECT run_key, workload, source FROM runs ORDER BY id"
            ).fetchall() == [("wk:abc", "wk", "svc"), (None, None, "plain.jsonl")]


@pytest.fixture
def codec_calls(monkeypatch):
    """Count the row-codec work of one ``insert_row``: ``encode`` (any
    call, its recursion included: the store must make none, the parsed
    line is the encoding) and ``canonical`` (one JSON dump each),
    whether ``db`` dumps the ``row_json`` itself or ``identity`` dumps
    for the digest."""
    calls = {"encode": 0, "canonical": 0}

    def counting(name, real):
        def wrapper(value):
            calls[name] += 1
            return real(value)
        return wrapper

    monkeypatch.setattr(identity, "encode", counting("encode", identity.encode))
    dump = counting("canonical", identity.canonical)
    monkeypatch.setattr(db_module, "canonical", dump)
    monkeypatch.setattr(identity, "canonical", dump)
    return calls


class TestEncodeOnceLookupFirst:
    def test_duplicate_encodes_once_and_serialises_no_row_json(
        self, store, sweep_jsonl, codec_calls
    ):
        row, encoded = parsed_rows(sweep_jsonl)[0]
        statements = []
        store._conn.set_trace_callback(statements.append)
        assert store.insert_row(row, encoded, source="again") is False
        store._conn.set_trace_callback(None)
        # The line's one encoding was the writer's: none here; one dump
        # for the digest, none for row_json.
        assert codec_calls == {"encode": 0, "canonical": 1}
        assert not any("INSERT" in sql for sql in statements)

    def test_fresh_row_encodes_once(self, sweep_jsonl, codec_calls):
        row, encoded = parsed_rows(sweep_jsonl)[0]
        with ResultStore(":memory:") as fresh:
            assert fresh.insert_row(row, encoded, source="new") is True
        # The parsed line feeds both the digest and the row_json dump.
        assert codec_calls == {"encode": 0, "canonical": 2}

    def test_stored_digest_is_row_digest(self, store, sweep_jsonl):
        rows = read_jsonl(sweep_jsonl)
        stored = {d for (d,) in store._conn.execute("SELECT row_digest FROM runs")}
        assert stored == {row_digest(row) for row in rows}
        for row in rows:
            (text,) = store._conn.execute(
                "SELECT row_json FROM runs WHERE row_digest = ?", (row_digest(row),)
            ).fetchone()
            assert row_digest(json.loads(text)) == row_digest(row)

    @pytest.mark.parametrize("bad", [
        {"config": [], "report": {}},
        {"config": {}, "report": "text"},
        {"report": {}},
    ])
    def test_non_mapping_row_raises_before_any_lookup(self, store, codec_calls, bad):
        statements = []
        store._conn.set_trace_callback(statements.append)
        with pytest.raises(ConfigurationError, match="config/report"):
            store.insert_row(bad, bad, source="junk")
        store._conn.set_trace_callback(None)
        assert codec_calls == {"encode": 0, "canonical": 0}
        assert statements == []


class TestQueries:
    def test_counts_and_enums(self, store):
        assert store.count() == 8
        assert store.algorithms() == ["ASYNC", "HOG"]
        assert store.epsilons() == [0.1, 0.5]
        assert store.default_epsilon() == 0.1

    def test_group_keys(self, store):
        assert store.group_keys() == [
            GroupKey(algorithm="ASYNC", m=4, eta=0.05),
            GroupKey(algorithm="HOG", m=4, eta=0.05),
        ]

    def test_group_stats_times(self, store, sweep_results):
        groups = {g.key.algorithm: g for g in store.group_stats(0.1)}
        for algorithm in ("ASYNC", "HOG"):
            want = sorted(
                r.time_to(0.1) for r in sweep_results
                if r.config.algorithm == algorithm
            )
            got = sorted(groups[algorithm].times)
            assert got == pytest.approx(want)
            assert all(math.isfinite(t) for t in got)

    def test_failure_counts_all_converged(self, store):
        assert store.failure_counts() == {
            "ASYNC": FailureCounts(converged=4),
            "HOG": FailureCounts(converged=4),
        }

    def test_aggregates_sorted_per_algorithm(self, store):
        aggs = store.aggregates()
        assert [a["algorithm"] for a in aggs] == ["ASYNC", "HOG"]
        for agg in aggs:
            assert agg["n_runs"] == 4
            assert agg["kernel_fallbacks"] == 0
            assert agg["mean_staleness"] > 0

    def test_run_rows_round_trip(self, store):
        rows = list(store.run_rows(algorithm="HOG"))
        assert len(rows) == 4
        for row in rows:
            assert row["config"]["algorithm"] == "HOG"
            assert "report" in row and "threshold_times" in row["report"]

    def test_default_epsilon_empty_store(self):
        with ResultStore(":memory:") as empty:
            assert empty.default_epsilon() is None
            assert empty.group_stats(0.1) == []


class TestPersistence:
    def test_on_disk_store_survives_reopen(self, sweep_jsonl, tmp_path):
        db = tmp_path / "results.sqlite"
        with ResultStore(db) as store:
            ingest_path(store, sweep_jsonl)
        with ResultStore(db) as store:
            assert store.count() == 8
            # ... and the dedup index survives with it.
            report = ingest_path(store, sweep_jsonl)
            assert report.inserted == 0
            assert report.duplicates == 8
