"""Generated rows: the keys each reader takes from its one parse equal
their definitions.

A served, replayed or ingested row is parsed once, and every key comes
from that parse: the measurer's simulation fingerprint
(:func:`~repro.identity.encoded_fingerprint`), the store's digest and
``row_json`` (:func:`~repro.identity.encoded_row_digest` and
:func:`~repro.identity.canonical` of the parse), and the byte-identical
``row_json`` lookup that lets a re-ingest skip both. This suite holds
them to the definitions — :func:`~repro.identity.canonical`,
:func:`~repro.identity.simulation_fingerprint` (through
:func:`~repro.identity.line_fingerprint`) and
:func:`~repro.identity.row_digest` — on generated rows: nested
mappings with non-ASCII and escaped keys and strings, lists, ints,
bools, None, ``-0.0``, ``1e300``, both sentinels and bare ``NaN``, with
each of :data:`~repro.identity.HOST_FIELDS` present or absent. A
re-rendered line (other separators, unsorted keys) must miss the text
lookup and still store what its canonical twin stores. A real row whose
column members (the ``config`` members, counts, times, ratios,
provenance, thresholds) take generated values, out of range ones
included, is one stored row or one warned skip, never a traceback.

Budgets follow ``tests/conftest.py`` (``default`` in tier-1,
``--hypothesis-profile=ci`` for the large one); every property is also
seeded, its rows bounded in size, and its examples under an explicit
deadline.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro import identity
from repro.core.problem import QuadraticProblem
from repro.harness.cache import RunCache
from repro.harness.config import RunConfig
from repro.harness.runner import run_once
from repro.service import Measurer
from repro.sim.cost import CostModel
from repro.store import ResultStore, ingest_path

#: Per example, generous for a slow host: the store and service tests
#: write files and open SQLite.
DEADLINE = settings(deadline=2000)
SEED = seed(2021)

NAN = float("nan")
SENTINEL_KEYS = ("__ndarray__", "__float__")

_ODD_TEXT = st.sampled_from(
    ["", "é", "Ω☃", '"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f", " ",
     "𝄞", "a b", "/"]
)
_TEXT = st.one_of(_ODD_TEXT, st.text(max_size=6))
_KEYS = _TEXT.filter(lambda key: key not in SENTINEL_KEYS)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 0.1, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(NAN),  # bare: what a hand-written line may hold
    st.sampled_from(["nan", "inf", "-inf"]).map(lambda s: {"__float__": s}),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(
        lambda data: {"__ndarray__": data, "dtype": "int64"}
    ),
    _TEXT,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=16,
)


def _has_bare_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_bare_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_bare_nan(v) for v in value)
    return False


@st.composite
def _with_host_fields(draw, members, host_value):
    """``members`` plus each of ``HOST_FIELDS`` present or absent."""
    row = dict(draw(members))
    for field in identity.HOST_FIELDS:
        if draw(st.booleans()):
            row[field] = draw(host_value(field))
        else:
            row.pop(field, None)
    return row


#: Any flat encoded row: every reader's keys are defined on these.
ROWS = _with_host_fields(
    st.dictionaries(_KEYS, _VALUES, max_size=5),
    lambda field: st.one_of(_LEAVES, st.dictionaries(_KEYS, _LEAVES, max_size=3)),
)
ALL_HOST = {field: {"é": [-0.0, NAN, {"__float__": "inf"}]} for field in identity.HOST_FIELDS}


def rerender(payload: dict) -> str:
    """The same row as another writer might lay it out: spaced
    separators, keys in reverse order."""
    return json.dumps(dict(reversed(list(payload.items()))), separators=(", ", ": "))


class TestKeysFromTheParse:
    @DEADLINE
    @SEED
    @given(ROWS)
    @example({})
    @example(ALL_HOST)
    def test_keys_of_the_parse_are_the_definitions(self, payload):
        text = identity.canonical(payload)
        digest = identity.encoded_row_digest(payload)
        fingerprint = identity.encoded_fingerprint(payload)
        assert fingerprint == identity.line_fingerprint(text)
        if not _has_bare_nan(payload):
            # ``encode`` is the identity on such a row: the encoded-row
            # keys are the keys of the row itself.
            assert fingerprint == identity.simulation_fingerprint(payload)
            assert digest == identity.row_digest(payload)
        # Another writer's layout parses to the same keys.
        parsed = json.loads(rerender(payload))
        assert identity.canonical(parsed) == text
        assert identity.encoded_row_digest(parsed) == digest
        assert identity.encoded_fingerprint(parsed) == fingerprint


# ----------------------------------------------------------------------
# The readers: store ingest, journal replay, cache hit
# ----------------------------------------------------------------------
PROBLEM = QuadraticProblem(4, h=1.0, b=1.5, noise_sigma=0.05)
COST = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)
CONFIG = RunConfig(algorithm="ASYNC", m=2, eta=0.05, seed=3, epsilons=(0.5, 0.1),
                   max_updates=40, max_virtual_time=10.0)
BASE = json.loads(identity.result_to_line(run_once(PROBLEM, COST, CONFIG)))
RUN_KEY = identity.run_key("wk", CONFIG)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: HOST members in the shapes the store's columns read.
_HOST_VALUES = {
    "wall_seconds": st.one_of(_FINITE, st.just({"__float__": "nan"})),
    "wall_phases": st.dictionaries(_KEYS, st.one_of(_FINITE, st.just(NAN)), max_size=3),
    "profile": st.dictionaries(_KEYS, _VALUES, max_size=2),
    "provenance": st.dictionaries(_KEYS, _TEXT, max_size=3).map(
        lambda extra: {**extra, **BASE["provenance"]}
    ),
    "kernel_fallbacks": st.integers(0, 5),
}

#: Rows every reader accepts: a real run's row with generated members
#: beside its own and each HOST member present or absent.
READABLE_ROWS = _with_host_fields(
    st.dictionaries(_KEYS.filter(lambda key: key not in BASE), _VALUES, max_size=3).map(
        lambda extra: {**BASE, **extra}
    ),
    _HOST_VALUES.__getitem__,
)


def _spy_text_lookup(store: ResultStore) -> list[bool]:
    """Record what each ``has_row_json`` lookup answered."""
    answers: list[bool] = []
    lookup = store.has_row_json

    def spy(config_hash, text):
        answers.append(lookup(config_hash, text))
        return answers[-1]

    store.has_row_json = spy
    return answers


def _ingest(store: ResultStore, tmp: Path, line: str):
    path = tmp / "runs.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    report = ingest_path(store, path)
    return report.inserted, report.duplicates, report.skipped


def _stored(store: ResultStore) -> list:
    return store._conn.execute("SELECT row_digest, row_json FROM runs").fetchall()


class TestStore:
    @DEADLINE
    @SEED
    @given(READABLE_ROWS)
    @example(BASE)
    def test_ingested_keys_are_the_definitions(self, payload):
        line = identity.canonical(payload)
        other = rerender(payload)
        assert other != line
        want = [(identity.encoded_row_digest(payload), line)]
        with tempfile.TemporaryDirectory() as tmp:
            for first in (line, other):
                with ResultStore(":memory:") as store:
                    assert _ingest(store, Path(tmp), first) == (1, 0, 0)
                    assert _stored(store) == want

    @DEADLINE
    @SEED
    @given(READABLE_ROWS)
    @example(BASE)
    def test_only_the_byte_identical_line_matches_the_text_lookup(self, payload):
        # The lookup is keyed by the config hash the provenance recorded;
        # a row without one always takes the digest lookup.
        keyed = "provenance" in payload
        line = identity.canonical(payload)
        with tempfile.TemporaryDirectory() as tmp, ResultStore(":memory:") as store:
            _ingest(store, Path(tmp), line)
            answers = _spy_text_lookup(store)
            assert _ingest(store, Path(tmp), line) == (0, 1, 0)
            assert answers == [True] * keyed
            assert _ingest(store, Path(tmp), rerender(payload)) == (0, 1, 0)
            assert answers == [True, False] * keyed
            assert _stored(store) == [(identity.encoded_row_digest(payload), line)]


class TestServiceReaders:
    @DEADLINE
    @SEED
    @given(READABLE_ROWS, st.booleans())
    @example(BASE, False)
    def test_replayed_and_served_fingerprints_are_the_definitions(self, payload, rendered):
        canonical_line = identity.canonical(payload)
        line = rerender(payload) if rendered else canonical_line
        want = identity.line_fingerprint(canonical_line)
        merged = identity.merged_fingerprint([want])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "results-wk.jsonl").write_text(line + "\n", encoding="utf-8")
            replayed = Measurer(tmp)
            assert replayed.load_workload("wk") == 1
            assert replayed.merged_fingerprint([RUN_KEY]) == merged

            cache = RunCache(tmp / "cache")
            entry = cache._path(identity.cache_key(PROBLEM, COST, CONFIG))
            entry.parent.mkdir(parents=True)
            entry.write_text(line + "\n", encoding="utf-8")
            result, text, parsed = cache.get(PROBLEM, COST, CONFIG)
            assert text == line
            served = Measurer(tmp / "served")
            served.adopt(RUN_KEY, text, parsed)
            served.ingest("wk", [(RUN_KEY, result)])
            assert served.merged_fingerprint([RUN_KEY]) == merged
            served.close()
            if not _has_bare_nan(payload):
                assert identity.simulation_fingerprint(result) == want


@pytest.mark.parametrize("field", identity.HOST_FIELDS)
def test_host_members_move_no_fingerprint(field):
    # The fingerprint drops every HOST member; the digest only the wall
    # clocks.
    digest = identity.encoded_row_digest(BASE)
    moved = {**BASE, field: {"moved": True}}
    assert identity.encoded_fingerprint(moved) == identity.encoded_fingerprint(BASE)
    assert (identity.encoded_row_digest(moved) == digest) is (field in identity.WALL_FIELDS)



# ----------------------------------------------------------------------
# Column values: a stored row or one warned skip
# ----------------------------------------------------------------------
#: Where the store's columns read a row (each a path of keys).
COLUMN_MEMBERS = (
    ("config", "algorithm"), ("config", "m"), ("config", "eta"), ("config", "seed"),
    ("config", "epsilons"), ("config", "target_epsilon"), ("status",), ("n_updates",),
    ("n_dropped",), ("virtual_time",), ("wall_seconds",), ("final_accuracy",),
    ("cas_failure_rate",), ("mean_lock_wait",), ("kernel_fallbacks",), ("peak_pv_count",),
    ("peak_pv_bytes",), ("report", "final_loss"), ("report", "threshold_times"),
    ("staleness",), ("staleness", "mean"), ("staleness", "p90"), ("probes",),
    ("probes", "occupancy"), ("provenance", "git_sha"), ("provenance", "hostname"),
    ("provenance", "cpu_count"), ("provenance", "config_hash"),
)
_COLUMN_VALUES = st.one_of(
    _VALUES,
    st.integers(2**63 - 2, 2**70),
    st.integers(-(2**70), -(2**63) + 1),
    st.sampled_from(["4", "2.5", "1e999", "0x10", "\ud800"]),
    # Threshold tables: numeric and other keys, pairs and other values.
    st.dictionaries(
        st.one_of(_TEXT, st.sampled_from(["0.5", "1e999", "nan"])),
        st.one_of(st.lists(_LEAVES, min_size=2, max_size=2), _LEAVES),
        max_size=3,
    ),
)


@st.composite
def column_rows(draw) -> dict:
    """:data:`BASE` with a few column members replaced (a member under a
    replaced non-mapping is left out)."""
    row = copy.deepcopy(BASE)
    for path in draw(st.lists(st.sampled_from(COLUMN_MEMBERS), min_size=1, max_size=4,
                              unique=True)):
        parent = row
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[path[-1]] = draw(_COLUMN_VALUES)
    return row


def _replaced(path: tuple, value) -> dict:
    row = copy.deepcopy(BASE)
    parent = row
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return row


#: Rows that once aborted ``repro db ingest`` with a traceback.
KNOWN_BAD = {
    "n_updates_inf": _replaced(("n_updates",), {"__float__": "inf"}),
    "m_not_a_number": _replaced(("config", "m"), "four"),
    "eta_not_a_number": _replaced(("config", "eta"), "fast"),
    "seed_not_a_number": _replaced(("config", "seed"), [3]),
}


def _ingest_counting_skips(store: ResultStore, path: Path, line: str):
    """Ingest ``line`` as ``path`` (a plain file, or a journal when its
    parent is a run dir): the counts and how many skips were warned."""
    path.write_text(line + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = ingest_path(store, path.parent if path.name.startswith("results-") else path)
    warned = sum("ingest: skipping" in str(w.message) for w in caught)
    return (report.inserted, report.duplicates, report.skipped), warned


class TestColumnValues:
    @DEADLINE
    @SEED
    @given(column_rows())
    @example(KNOWN_BAD["n_updates_inf"])
    @example(KNOWN_BAD["m_not_a_number"])
    def test_any_column_value_is_a_row_or_one_warned_skip(self, payload):
        line = identity.canonical(payload)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "run").mkdir()
            for path in (Path(tmp) / "runs.jsonl", Path(tmp) / "run" / "results-wk.jsonl"):
                with ResultStore(":memory:") as store:
                    counts, warned = _ingest_counting_skips(store, path, line)
                    assert counts in ((1, 0, 0), (0, 0, 1))
                    assert warned == counts[2]
                    stored = [(identity.encoded_row_digest(payload), line)] * counts[0]
                    assert _stored(store) == stored
                    if not counts[0]:  # nothing of a skipped row is written
                        thresholds = store._conn.execute("SELECT COUNT(*) FROM thresholds")
                        assert thresholds.fetchone() == (0,)

    @pytest.mark.parametrize("name", list(KNOWN_BAD))
    def test_known_out_of_range_rows_are_skipped(self, name, tmp_path):
        with ResultStore(":memory:") as store:
            counts, warned = _ingest_counting_skips(
                store, tmp_path / "runs.jsonl", identity.canonical(KNOWN_BAD[name])
            )
        assert (counts, warned) == ((0, 0, 1), 1)
