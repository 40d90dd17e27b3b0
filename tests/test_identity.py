"""``repro.identity``: the row codec, the schema gate, the volatile-field
declaration and the nine derived keys, each defined once.

The golden values below pin the formulas: a future change that moves
any of them fails here, and must say why (``TestGoldenKeys`` records
each reason).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import identity
from repro.core.problem import DLProblem, Problem, QuadraticProblem
from repro.errors import ConfigurationError, SchemaVersionError
from repro.harness import cache as cache_module
from repro.harness.cache import RunCache
from repro.harness.config import RunConfig
from repro.harness.pool import load_broadcast_payload, make_broadcast
from repro.harness.runner import run_once
from repro.nn.architectures import mlp_custom
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.service import ExperimentService, Measurer
from repro.service import measurer as measurer_module
from repro.sim.cost import CostModel
from repro.store import ResultStore, ingest_path
from repro.telemetry.jsonl import read_jsonl

from tests.nn.user_layers import Jitter

# ----------------------------------------------------------------------
# (i) Golden values
# ----------------------------------------------------------------------
CONFIG_A = RunConfig(
    algorithm="LSH_ps1", m=4, eta=0.05, seed=7, epsilons=(0.5, 0.1),
    target_epsilon=0.1, max_updates=1000, max_virtual_time=100.0,
)
CONFIG_B = RunConfig(algorithm="HOG", m=2, eta=0.005, seed=0, probes=("occupancy",))
COST = CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)
ROW = {
    "config": {"algorithm": "HOG", "m": 2, "eta": 0.005, "seed": 0,
               "epsilons": [0.5, 0.1], "target_epsilon": 0.1},
    "status": "crashed",
    "report": {
        "status": "crashed", "initial_loss": 12.5,
        "final_loss": {"__float__": "nan"},
        "threshold_times": {"0.5": [0.25, 40], "0.1": [{"__float__": "inf"}, -1]},
        "curve_t": [0.0, 0.25], "curve_loss": [12.5, {"__float__": "nan"}],
        "curve_updates": [0, 40],
    },
    "schema_version": 3,
    "virtual_time": 0.5,
    "n_updates": 41,
    "n_dropped": 0,
    "cas_failure_rate": {"__float__": "nan"},
    "mean_lock_wait": {"__float__": "nan"},
    "staleness": {"mean": 1.5, "median": 1.0, "p90": 3.0, "max": 4},
    "staleness_values": {"__ndarray__": [0, 1, 1, 4], "dtype": "int64"},
    "updates_per_thread": {"__ndarray__": [21, 20], "dtype": "int64"},
    "final_accuracy": {"__float__": "nan"},
    "probes": {},
    "wall_seconds": 0.0125,
    "wall_phases": {"setup": 0.001, "simulate": 0.011, "teardown": {"__float__": "nan"}},
    "profile": {},
    "provenance": {"git_sha": "0123abc", "git_dirty": False, "hostname": "golden",
                   "config_hash": "feedfacefeedface", "seed": 0},
    "kernel_fallbacks": 0,
}
FINGERPRINTS = ["a" * 64, "0f" * 32, "b1" * 32]


@pytest.fixture(scope="module")
def problem():
    return QuadraticProblem(4, h=1.0, b=1.5, noise_sigma=0.05)


class TestGoldenKeys:
    """The config, simulation, merged and row goldens were computed at the
    parent commit of the change that gathered the keys into
    ``repro.identity``, with that tree's own functions, and have not
    moved since.

    The problem, workload, cache, run and task goldens moved once, when
    ``problem_fingerprint`` stopped walking ``vars(problem)`` and began
    hashing only what the problem declares in ``identity()``. The walk
    hashed whatever hung on the object, so a private attribute, a cache
    or a layer's RNG moved the key (a network holding a stateful layer
    got a new key in every process). The formulas around the fingerprint are unchanged:
    rows, ``simulation_fingerprint``, ``merged_fingerprint`` and
    ``row_digest`` are byte-identical to what earlier trees wrote."""

    def test_config_hash(self):
        assert identity.config_hash(CONFIG_A) == "32ec3b0883bd0db6"
        assert identity.config_hash(CONFIG_B) == "3d9f195e2469c2fa"

    def test_problem_fingerprint(self, problem):
        assert identity.problem_fingerprint(problem) == (
            "81f0798ed2aaf8dfd5eb62014ee6e5718d757ef3632e387446b3666dd114cd10"
        )

    def test_workload_key(self, problem):
        assert identity.workload_key(problem, COST) == "a5a3b88e02e8d1cd"

    def test_cache_key(self, problem):
        assert identity.cache_key(problem, COST, CONFIG_A) == (
            "99e21d66a3713a3bd7188b77739b0a5cfa3fe6ce93a71c723641e14469c83f47"
        )
        assert identity.cache_key(problem, COST, CONFIG_B) == (
            "bac3f52a235b45d8f16538aea924773045a723d035db4cd83539f136b9480cde"
        )

    def test_run_key_and_task_id(self, problem):
        wkey = identity.workload_key(problem, COST)
        keys = [identity.run_key(wkey, CONFIG_A), identity.run_key(wkey, CONFIG_B)]
        assert keys == [
            "a5a3b88e02e8d1cd:32ec3b0883bd0db6",
            "a5a3b88e02e8d1cd:3d9f195e2469c2fa",
        ]
        assert identity.task_id_for(keys) == "t-a66a4972dfe21f54"

    def test_simulation_fingerprint(self):
        golden = "710dc410b962dffd8e611ba8d648cc881e3a31b2a874b2f18de6dd2ceb7e1bce"
        assert identity.simulation_fingerprint(ROW) == golden
        # The decoded row and its canonical line are the same run.
        assert identity.simulation_fingerprint(identity.decode(ROW)) == golden
        assert identity.line_fingerprint(identity.result_to_line(ROW)) == golden

    def test_merged_fingerprint(self):
        assert identity.merged_fingerprint(FINGERPRINTS) == (
            "eaf59bd3c43ca5c8ac5ae0464406bf29c12c6d825f589046aa4ff3d96e0fb37f"
        )
        assert identity.merged_fingerprint(iter(FINGERPRINTS[::-1])) != (
            identity.merged_fingerprint(FINGERPRINTS)
        )

    def test_row_digest(self):
        golden = "476d57aed7f32bf937d0738a72cf25d631ba97dc0ec7315844ad9503b2a37f07"
        assert identity.row_digest(ROW) == golden
        assert identity.row_digest(identity.decode(ROW)) == golden
        assert identity.encoded_row_digest(ROW) == golden


# ----------------------------------------------------------------------
# (ii) One definition behind every old import path
# ----------------------------------------------------------------------
OLD_PATHS = [
    ("repro.harness.cache", "HOST_FIELDS"),
    ("repro.harness.cache", "cache_key"),
    ("repro.harness.cache", "problem_fingerprint"),
    ("repro.harness.cache", "result_from_row"),
    ("repro.harness.cache", "simulation_fingerprint"),
    ("repro.service", "run_key"),
    ("repro.service", "task_id_for"),
    ("repro.service", "workload_key"),
    ("repro.service.scheduler", "run_key"),
    ("repro.service.scheduler", "task_id_for"),
    ("repro.service.scheduler", "workload_key"),
    ("repro.service.measurer", "result_to_line"),
    ("repro.service.measurer", "result_from_row"),
    ("repro.store", "row_digest"),
    ("repro.store.ingest", "migrate_row_strict"),
    ("repro.telemetry", "SCHEMA_VERSION"),
    ("repro.telemetry", "migrate_row_strict"),
    ("repro.telemetry", "result_to_line"),
    ("repro.telemetry.jsonl", "migrate_row_strict"),
    ("repro.telemetry.jsonl", "result_to_line"),
    ("repro.telemetry.metrics", "SCHEMA_VERSION"),
    ("repro.observe.provenance", "config_hash"),
]


@pytest.mark.parametrize("module_name, name", OLD_PATHS)
def test_old_import_path_is_the_identity_object(module_name, name):
    import importlib

    module = importlib.import_module(module_name)
    # ``vars``: a module-level binding (what bench/trace.py patches),
    # not something resolved through ``__getattr__``.
    assert vars(module)[name] is getattr(identity, name)


# ----------------------------------------------------------------------
# (iii) One declaration of the volatile fields
# ----------------------------------------------------------------------
class TestVolatileFields:
    def test_wall_fields_are_a_proper_subset(self):
        assert set(identity.WALL_FIELDS) < set(identity.HOST_FIELDS)
        assert set(identity.HOST_FIELDS) - set(identity.WALL_FIELDS) == {
            "provenance", "kernel_fallbacks"
        }

    @pytest.mark.parametrize("field, value", [
        ("wall_seconds", 99.0),
        ("wall_phases", {"setup": 1.0, "simulate": 2.0, "teardown": 3.0}),
        ("profile", {"scheduler.run": {"count": 1, "total_s": 0.5}}),
    ])
    def test_wall_fields_move_no_key(self, field, value):
        assert field in identity.WALL_FIELDS
        other = {**ROW, field: value}
        assert identity.row_digest(other) == identity.row_digest(ROW)
        assert identity.simulation_fingerprint(other) == identity.simulation_fingerprint(ROW)

    @pytest.mark.parametrize("field, value", [
        ("provenance", {**ROW["provenance"], "hostname": "elsewhere"}),
        ("kernel_fallbacks", 3),
    ])
    def test_host_only_fields_move_the_store_address_alone(self, field, value):
        # Another tree/host/execution mode: the same science, a new sample.
        other = {**ROW, field: value}
        assert identity.simulation_fingerprint(other) == identity.simulation_fingerprint(ROW)
        assert identity.row_digest(other) != identity.row_digest(ROW)

    def test_simulation_fields_move_both(self):
        other = {**ROW, "n_updates": 42}
        assert identity.simulation_fingerprint(other) != identity.simulation_fingerprint(ROW)
        assert identity.row_digest(other) != identity.row_digest(ROW)


# ----------------------------------------------------------------------
# (iv) Codec round trips on generated encoded rows
# ----------------------------------------------------------------------
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_ELEMENTS = {
    "int64": _INT64,
    "float32": st.floats(allow_nan=False, allow_infinity=False, width=32),
    "float64": st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def _encoded_arrays(draw):
    dtype = draw(st.sampled_from(sorted(_ELEMENTS)))
    if draw(st.booleans()):  # 1-D, possibly empty
        data = draw(st.lists(_ELEMENTS[dtype], max_size=5))
    else:  # 2-D, possibly with zero columns
        width = draw(st.integers(min_value=0, max_value=3))
        data = draw(st.lists(
            st.lists(_ELEMENTS[dtype], min_size=width, max_size=width),
            min_size=1, max_size=3,
        ))
    return {"__ndarray__": data, "dtype": dtype}


_KEYS = st.text(max_size=8).filter(lambda k: k not in ("__ndarray__", "__float__"))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["nan", "inf", "-inf"]).map(lambda s: {"__float__": s}),
    _encoded_arrays(),
)
_ENCODED = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)

#: Flat rows: a mapping at the top, like every archived line.
_ENCODED_ROWS = st.dictionaries(_KEYS, _ENCODED, max_size=6)


class TestCodecProperty:
    @given(_ENCODED)
    def test_encode_inverts_decode(self, encoded):
        assert identity.encode(identity.decode(encoded)) == encoded

    @given(_ENCODED)
    def test_canonical_parses_back_to_the_encoded_value(self, encoded):
        text = identity.canonical(encoded)
        assert json.loads(text) == encoded
        assert identity.canonical(json.loads(text)) == text

    @given(_ENCODED_ROWS)
    def test_parsed_line_is_the_encoded_row(self, encoded):
        # What lets the store take digest and row_json from the parse:
        # no reader has to encode a row it decoded.
        parsed = json.loads(identity.canonical(encoded))
        assert identity.encoded_row_digest(parsed) == identity.row_digest(
            identity.decode_row(parsed)
        )
        assert identity.result_to_line(identity.decode_row(parsed)) == (
            identity.canonical({"schema_version": identity.SCHEMA_VERSION, **parsed})
        )

    def test_real_row_line_is_a_fixed_point(self, good_line):
        parsed = json.loads(good_line)
        assert identity.canonical(parsed) == good_line
        assert identity.encode(identity.decode(parsed)) == parsed
        assert identity.encoded_row_digest(parsed) == identity.row_digest(
            identity.decode(parsed)
        )
        assert identity.result_to_line(
            identity.result_from_row(identity.decode(parsed))
        ) == good_line


# ----------------------------------------------------------------------
# (v) A result is encoded once per measurer
# ----------------------------------------------------------------------
def _configs(n=4):
    return [
        RunConfig(algorithm="ASYNC", m=2, eta=0.05, seed=seed, epsilons=(0.5, 0.1),
                  max_updates=60, max_virtual_time=10.0)
        for seed in range(n)
    ]


@pytest.fixture
def encodes(monkeypatch):
    """Calls of ``result_to_line`` through the measurer's binding, and
    through the cache's should it ever grow one again."""
    calls = []

    def counting(result):
        calls.append(result)
        return identity.result_to_line(result)

    monkeypatch.setattr(measurer_module, "result_to_line", counting)
    monkeypatch.setattr(cache_module, "result_to_line", counting, raising=False)
    return calls


class TestEncodeOnce:
    def test_durable_session_encodes_each_run_once(self, tmp_path, problem, encodes):
        configs = _configs()
        with ExperimentService(tmp_path, workers=1, replicas=2) as service:
            service.map(problem, COST, configs)
            assert len(encodes) == len(configs)  # the journal appends
            first = service.finalize()
            assert len(encodes) == len(configs)  # the fingerprint: none
            assert service.summary()["merged_fingerprint"] == first["merged_fingerprint"]
            assert service.summary() == service.summary()
            assert len(encodes) == len(configs)
        assert service.measurer._lines == {}  # dropped by close(), not by a gc
        # The journal lines are what the fingerprint hashes: no merge file.
        assert not (tmp_path / "merged.jsonl").exists()
        (journal,) = tmp_path.glob("results-*.jsonl")
        lines = journal.read_text().splitlines()
        assert len(lines) == len(configs)
        assert first["merged_fingerprint"] == identity.merged_fingerprint(
            identity.simulation_fingerprint(json.loads(line)) for line in lines
        )

    def test_resumed_session_encodes_each_run_once(self, tmp_path, problem, encodes):
        configs = _configs()
        with ExperimentService(tmp_path, workers=1, replicas=2) as service:
            service.map(problem, COST, configs)
            populated = service.finalize()
        (journal,) = tmp_path.glob("results-*.jsonl")
        on_disk = journal.read_bytes()
        del encodes[:]
        with ExperimentService(tmp_path, workers=1, replicas=2) as service:
            service.map(problem, COST, configs)
            assert service.stats.runs_from_journal == len(configs)
            resumed = service.finalize()
            service.summary()
        # The one encoding of a row already on disk is its journal line.
        assert encodes == []
        assert resumed["merged_fingerprint"] == populated["merged_fingerprint"]
        assert journal.read_bytes() == on_disk

    def test_cached_durable_session_encodes_each_executed_run_once(
        self, tmp_path, problem, encodes
    ):
        # One line per run: the cache entry, the journal row and the
        # fingerprint input are the same text.
        configs = _configs()
        cache = RunCache(tmp_path / "cache")
        with ExperimentService(
            tmp_path / "populate", workers=1, replicas=2, cache=cache
        ) as service:
            service.map(problem, COST, configs)
            populated = service.finalize()
        assert len(encodes) == service.stats.runs_executed == len(configs)
        entries = {
            path.read_text() for path in (tmp_path / "cache").glob("*/*.json")
        }
        (journal,) = (tmp_path / "populate").glob("results-*.jsonl")
        assert set(journal.read_text().splitlines(keepends=True)) == entries

        # A second session on the same cache executes and encodes nothing,
        # and journals each entry's text as it stands.
        del encodes[:]
        with ExperimentService(
            tmp_path / "cached", workers=1, replicas=2, cache=cache
        ) as service:
            service.map(problem, COST, configs)
            assert service.stats.runs_from_cache == len(configs)
            cached = service.finalize()
        (served,) = (tmp_path / "cached").glob("results-*.jsonl")
        assert served.read_bytes() == journal.read_bytes()

        # ... and so does a session resumed on the first run dir.
        with ExperimentService(tmp_path / "populate", workers=1, replicas=2) as service:
            service.map(problem, COST, configs)
            assert service.stats.runs_from_journal == len(configs)
            resumed = service.finalize()
        assert encodes == []
        assert (
            populated["merged_fingerprint"]
            == cached["merged_fingerprint"]
            == resumed["merged_fingerprint"]
        )

    def test_volatile_cached_session_shares_the_line_with_the_summary(
        self, tmp_path, problem, encodes
    ):
        configs = _configs()
        cache = RunCache(tmp_path / "cache")
        with ExperimentService(workers=1, replicas=2, cache=cache) as service:
            service.map(problem, COST, configs)
            assert len(encodes) == len(configs)  # the cache entries
            service.summary()
        assert len(encodes) == len(configs)  # the fingerprint: none
        del encodes[:]
        with ExperimentService(workers=1, replicas=2, cache=cache) as service:
            service.map(problem, COST, configs)
            service.summary()
        assert encodes == []

    def test_volatile_session_encodes_nothing_until_asked(self, problem, encodes):
        configs = _configs()
        with ExperimentService(workers=1, replicas=2) as service:
            results = service.map(problem, COST, configs)
            assert encodes == []
            fingerprint = service.summary()["merged_fingerprint"]
            service.summary()
        assert len(encodes) == len(configs)
        assert fingerprint == identity.merged_fingerprint(
            identity.simulation_fingerprint(result) for result in results
        )

    def test_lines_follow_the_stored_result_not_a_later_offer(self, problem):
        # ``ingest`` never replaces a stored result, so neither may the
        # line: a second offer under a known key changes nothing.
        (config,) = _configs(1)
        first = run_once(problem, COST, config)
        other = run_once(problem, COST, _configs(2)[1])
        measurer = Measurer()
        measurer.ingest("wk", [("wk:k", first)])
        before = measurer.merged_fingerprint(["wk:k"])
        measurer.ingest("wk", [("wk:k", other)])
        assert measurer.merged_fingerprint(["wk:k"]) == before
        assert before == identity.merged_fingerprint([identity.simulation_fingerprint(first)])


@pytest.fixture
def row_codec(monkeypatch):
    """Row-level codec work, however it is reached: ``parse`` counts
    ``json.loads`` of a row line, ``serialise`` ``json.dumps`` of a row
    (a mapping with ``schema_version``: the whole row, or the row less
    some members for a digest); of the outermost ``decode`` calls,
    ``decode`` counts those of a row and ``decode_members`` those of a
    mapping of some of its members."""
    calls = dict.fromkeys(("parse", "serialise", "decode", "decode_members"), 0)
    loads, dumps, decode = json.loads, json.dumps, identity.decode
    depth = [0]

    def counting_loads(text, *args, **kwargs):
        if isinstance(text, str) and '"schema_version"' in text:
            calls["parse"] += 1
        return loads(text, *args, **kwargs)

    def counting_dumps(value, *args, **kwargs):
        if isinstance(value, dict) and "schema_version" in value:
            calls["serialise"] += 1
        return dumps(value, *args, **kwargs)

    def counting_decode(value):
        if depth[0] == 0 and isinstance(value, dict):
            calls["decode" if "schema_version" in value else "decode_members"] += 1
        depth[0] += 1
        try:
            return decode(value)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(identity, "decode", counting_decode)
    return calls


def _zero(calls):
    for name in calls:
        calls[name] = 0


class TestParseOnce:
    """A served or replayed run is parsed once and fingerprinted from
    that parse; ``finalize`` hashes stored fingerprints; an unchanged
    re-ingest is one text lookup per line."""

    def _populate(self, tmp_path, problem, configs):
        cache = RunCache(tmp_path / "cache")
        with ExperimentService(
            tmp_path / "populate", workers=1, replicas=2, cache=cache
        ) as service:
            service.map(problem, COST, configs)
            return cache, service.finalize()

    def test_durable_cached_session_parses_each_row_once(
        self, tmp_path, problem, row_codec
    ):
        configs = _configs()
        cache, populated = self._populate(tmp_path, problem, configs)
        _zero(row_codec)
        with ExperimentService(
            tmp_path / "cached", workers=1, replicas=2, cache=cache
        ) as service:
            service.map(problem, COST, configs)
            assert service.stats.runs_from_cache == len(configs)
            # The cache's one parse; the fingerprint of that parse.
            assert row_codec == {"parse": 4, "serialise": 4, "decode": 4, "decode_members": 0}
            _zero(row_codec)
            summary = service.finalize()
        assert row_codec == {"parse": 0, "serialise": 0, "decode": 0, "decode_members": 0}
        assert summary["merged_fingerprint"] == populated["merged_fingerprint"]

    def test_resumed_session_parses_each_row_once(self, tmp_path, problem, row_codec):
        configs = _configs()
        _, populated = self._populate(tmp_path, problem, configs)
        _zero(row_codec)
        with ExperimentService(tmp_path / "populate", workers=1, replicas=2) as service:
            service.map(problem, COST, configs)
            assert service.stats.runs_from_journal == len(configs)
            assert row_codec == {"parse": 4, "serialise": 4, "decode": 4, "decode_members": 0}
            _zero(row_codec)
            summary = service.finalize()
        assert row_codec == {"parse": 0, "serialise": 0, "decode": 0, "decode_members": 0}
        assert summary["merged_fingerprint"] == populated["merged_fingerprint"]

    def test_volatile_cached_session_serialises_nothing_extra(
        self, tmp_path, problem, row_codec
    ):
        configs = _configs()
        cache, populated = self._populate(tmp_path, problem, configs)
        _zero(row_codec)
        with ExperimentService(workers=1, replicas=2, cache=cache) as service:
            service.map(problem, COST, configs)
            assert row_codec == {"parse": 4, "serialise": 0, "decode": 4, "decode_members": 0}
            # A summary asks: each line is fingerprinted then, as before.
            assert service.summary()["merged_fingerprint"] == populated["merged_fingerprint"]

    def test_reingest_of_an_unchanged_run_dir_decodes_and_serialises_nothing(
        self, tmp_path, problem, row_codec
    ):
        configs = _configs()
        self._populate(tmp_path, problem, configs)
        with ResultStore(":memory:") as store:
            first = ingest_path(store, tmp_path / "populate")
            assert (first.inserted, first.duplicates) == (4, 0)
            _zero(row_codec)
            again = ingest_path(store, tmp_path / "populate")
            assert (again.inserted, again.duplicates, again.skipped) == (0, 4, 0)
        assert row_codec == {"parse": 4, "serialise": 0, "decode": 0, "decode_members": 0}

    def test_re_rendered_line_is_serialised_once_and_decodes_only_its_wall_clocks(
        self, tmp_path, problem, row_codec
    ):
        configs = _configs()
        self._populate(tmp_path, problem, configs)
        (journal,) = (tmp_path / "populate").glob("results-*.jsonl")
        rendered = tmp_path / "rendered.jsonl"
        rendered.write_text("".join(
            json.dumps(json.loads(line), separators=(", ", ": ")) + "\n"
            for line in journal.read_text().splitlines()
        ))
        with ResultStore(":memory:") as store:
            ingest_path(store, journal)
            _zero(row_codec)
            again = ingest_path(store, rendered)
            assert (again.inserted, again.duplicates, again.skipped) == (0, 4, 0)
        # A plain file's first line is parsed once more, by the sniff that
        # tells run rows from a bench trajectory. Each line is serialised
        # for its digest, and only its WALL_FIELDS members, the part it
        # does not share with its stored twin, are decoded.
        assert row_codec == {"parse": 5, "serialise": 4, "decode": 0, "decode_members": 4}

    def test_byte_identical_line_the_gate_refuses_is_a_skip(
        self, tmp_path, problem, monkeypatch
    ):
        configs = _configs()
        self._populate(tmp_path, problem, configs)
        with ResultStore(":memory:") as store:
            ingest_path(store, tmp_path / "populate")
            monkeypatch.setattr(identity, "SCHEMA_VERSION", identity.SCHEMA_VERSION + 1)
            with pytest.warns(UserWarning, match="ingest: skipping .*schema_version 3 not"):
                again = ingest_path(store, tmp_path / "populate")
        assert (again.inserted, again.duplicates, again.skipped) == (0, 0, 4)


# ----------------------------------------------------------------------
# (vi) Every reader skips the same bad rows
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def good_run(problem):
    (config,) = _configs(1)
    return config, run_once(problem, COST, config)


@pytest.fixture(scope="module")
def good_line(good_run):
    return identity.result_to_line(good_run[1])


_DROP = object()  # a ``_with`` change that removes the key


def _with(line: str, **changes) -> str:
    row = json.loads(line)
    row.update(changes)
    return json.dumps({k: v for k, v in row.items() if v is not _DROP})


#: id -> (row mutation, the error the one reader raises for it).
BAD_ROWS = {
    # Fix 1: values the codec cannot restore.
    "ndarray-unknown-dtype": (
        {"staleness_values": {"__ndarray__": [1, 2], "dtype": "nonsense"}},
        ConfigurationError,
    ),
    "float-sentinel-not-a-float": (
        {"mean_lock_wait": {"__float__": "abc"}}, ConfigurationError,
    ),
    "ndarray-ragged": (
        {"staleness_values": {"__ndarray__": [[1, 2], [3]], "dtype": "float64"}},
        ConfigurationError,
    ),
    "ndarray-overflow": (
        {"staleness_values": {"__ndarray__": [2**70], "dtype": "int64"}},
        ConfigurationError,
    ),
    # Fix 2: schema versions that are not versions.
    "version-string": ({"schema_version": "3"}, SchemaVersionError),
    "version-list": ({"schema_version": [3]}, SchemaVersionError),
    "version-zero": ({"schema_version": 0}, SchemaVersionError),
    "version-negative": ({"schema_version": -1}, SchemaVersionError),
    "version-fractional": ({"schema_version": 2.5}, SchemaVersionError),
    "version-bool": ({"schema_version": True}, SchemaVersionError),
    # Rows as the v1 / v2 writers (gone since PR 6) laid them out: foreign
    # input like any other version, never migrated.
    "version-v1": (
        {"schema_version": 1, "wall_phases": _DROP, "profile": _DROP,
         "provenance": _DROP, "kernel_fallbacks": _DROP},
        SchemaVersionError,
    ),
    "version-v2": (
        {"schema_version": 2, "kernel_fallbacks": _DROP}, SchemaVersionError,
    ),
    "version-newer": (
        {"schema_version": identity.SCHEMA_VERSION + 1}, SchemaVersionError,
    ),
    "version-missing": ({"schema_version": _DROP}, SchemaVersionError),
}


@pytest.fixture(params=sorted(BAD_ROWS))
def bad(request, good_line):
    changes, error = BAD_ROWS[request.param]
    return _with(good_line, **changes), error


class TestTolerantReaders:
    def test_the_one_reader_raises_only_its_family(self, bad):
        line, error = bad
        with pytest.raises(error, match="somewhere:7") as excinfo:
            identity.migrate_row_strict(
                identity.row_from_line(line, where="somewhere:7"), where="somewhere:7"
            )
        if error is ConfigurationError:
            assert not isinstance(excinfo.value, SchemaVersionError)

    @pytest.mark.parametrize("line", ['{"torn', "[1, 2]", '"text"', "3"])
    def test_not_a_row_at_all(self, line):
        with pytest.raises(ConfigurationError, match="f:1"):
            identity.row_from_line(line, where="f:1")

    @pytest.mark.parametrize("after_a_good_row", [True, False])
    def test_read_jsonl_names_the_line(self, tmp_path, good_line, bad, after_a_good_row):
        line, error = bad
        path = tmp_path / "runs.jsonl"
        path.write_text((good_line + "\n") * after_a_good_row + line + "\n")
        with pytest.raises(error, match=rf"runs\.jsonl:{1 + after_a_good_row}"):
            read_jsonl(path)

    def test_ingest_skips_the_row_and_keeps_its_neighbours(self, tmp_path, good_line, bad):
        line, _ = bad
        path = tmp_path / "runs.jsonl"
        later = _with(good_line, n_updates=json.loads(good_line)["n_updates"] + 1)
        path.write_text(good_line + "\n" + line + "\n" + later + "\n")
        with ResultStore(tmp_path / "results.sqlite") as store:
            with pytest.warns(UserWarning, match=r"ingest: skipping .*runs\.jsonl:2"):
                report = ingest_path(store, path)
            assert (report.inserted, report.duplicates, report.skipped) == (2, 0, 1)
            assert store.count() == 2
        # ... and the good rows were committed, not rolled back.
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.count() == 2

    def test_run_cache_entry_is_a_warned_miss(self, tmp_path, problem, good_run, bad):
        line, _ = bad
        config, result = good_run
        cache = RunCache(tmp_path)
        cache.put(problem, COST, config, result, identity.result_to_line(result))
        cache._path(identity.cache_key(problem, COST, config)).write_text(line + "\n")
        with pytest.warns(RuntimeWarning, match="run cache: corrupt entry"):
            assert cache.get(problem, COST, config) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_journal_row_is_a_warned_skip(self, tmp_path, good_line, bad):
        line, _ = bad
        (tmp_path / "results-wk.jsonl").write_text(good_line + "\n" + line + "\n")
        measurer = Measurer(tmp_path)
        with pytest.warns(RuntimeWarning, match=r"skipping unreadable row .*:2 "):
            assert measurer.load_workload("wk") == 1

    def test_journal_of_foreign_rows_re_executes(self, tmp_path, problem, bad):
        # A run dir whose journal holds only such rows (say, one written
        # by a v2 tree) resumes by running the boxes again.
        line, _ = bad
        (config,) = _configs(1)
        with ExperimentService(tmp_path, workers=1, replicas=1) as service:
            service.map(problem, COST, [config])
            fresh = service.finalize()
        (journal,) = tmp_path.glob("results-*.jsonl")
        journal.write_text(line + "\n")
        with ExperimentService(tmp_path, workers=1, replicas=1) as service:
            with pytest.warns(RuntimeWarning, match="skipping unreadable row"):
                service.map(problem, COST, [config])
            assert service.stats.runs_executed == 1
            assert service.finalize()["merged_fingerprint"] == fresh["merged_fingerprint"]

    def test_cache_entry_that_is_not_one_line_is_a_warned_miss(
        self, tmp_path, problem, good_run, good_line
    ):
        # A hit's text is journalled as it stands, so a valid row spread
        # over several lines must not be served.
        config, _ = good_run
        cache = RunCache(tmp_path)
        path = cache._path(identity.cache_key(problem, COST, config))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(json.loads(good_line), indent=1) + "\n")
        with pytest.warns(RuntimeWarning, match="not a single row line"):
            assert cache.get(problem, COST, config) is None
        path.write_text(good_line + "\n")
        _, line, _ = cache.get(problem, COST, config)
        assert line == good_line

    def test_archived_config_hash(self, good_run):
        config, result = good_run
        archived = identity.decode(identity.encode(result))["config"]
        assert identity.archived_config_hash(archived) == identity.config_hash(config)
        # A config that no longer reconstructs still gets a stable label.
        broken = {**archived, "m": 0}
        assert identity.archived_config_hash(broken) == identity.content_digest(broken)[:16]


# ----------------------------------------------------------------------
# (vii) A workload's key is what its problem declares
# ----------------------------------------------------------------------
def _mlp_problem(input_dim=6, hidden=(5,), n_classes=3, *, batch_size=4,
                 dtype=np.float32, layers=None):
    """A small DL problem whose data depend only on its shape arguments,
    so two calls with equal arguments build equal workloads."""
    rng = np.random.default_rng(input_dim)
    x = rng.normal(size=(24, input_dim)).astype(np.float32)
    y = np.arange(24) % n_classes
    network = (
        Network(layers, input_shape=(input_dim,)) if layers is not None
        else mlp_custom(input_dim, hidden, n_classes)
    )
    return DLProblem(network, x[:16], y[:16], x[16:], y[16:],
                     batch_size=batch_size, dtype=dtype)


def _dl_config(**overrides):
    fields = dict(algorithm="ASYNC", m=2, eta=0.05, seed=3, max_updates=6,
                  max_virtual_time=10.0)
    return RunConfig(**{**fields, **overrides})


class _Undeclared(Problem):
    """A problem that declares no identity."""

    d = 3

    def init_theta(self, rng):
        return np.ones(3)

    def make_grad_fn(self, rng):
        def grad(theta, out):
            out[...] = theta

        return grad

    def eval_loss(self, theta):
        return float(theta @ theta)


class TestDeclaredIdentity:
    def test_private_attributes_move_no_key(self):
        plain, decorated = _mlp_problem(), _mlp_problem()
        decorated._note = "anything"
        decorated.network._memo = {"scratch": np.zeros(7)}
        decorated.network.layers[0]._cache = np.ones(3)
        decorated.network.name = "renamed"  # cosmetic, not identity
        assert identity.problem_fingerprint(decorated) == identity.problem_fingerprint(plain)

    def test_use_moves_no_key(self):
        problem = _mlp_problem()
        before = identity._identity_digest(problem)
        theta = problem.init_theta(np.random.default_rng(0))
        problem.eval_loss(theta)
        problem.eval_accuracy(theta)
        assert identity._identity_digest(problem) == before
        run_once(problem, COST, _dl_config())
        assert identity._identity_digest(problem) == before
        assert identity.problem_fingerprint(problem) == before

    def test_copies_share_the_key(self):
        problem = _mlp_problem(input_dim=4096)  # a split large enough for shm
        key = identity.workload_key(problem, COST)
        assert identity.workload_key(pickle.loads(pickle.dumps(problem)), COST) == key
        broadcast = make_broadcast(problem, COST)
        try:
            assert broadcast.segments  # the copy reads the shm views
            copy, copy_cost, attached = load_broadcast_payload(broadcast.payload)
            try:
                assert identity.workload_key(copy, copy_cost) == key
            finally:
                for handle in attached:
                    handle.close()
        finally:
            broadcast.close()

    def test_what_is_declared_moves_the_key(self):
        base = _mlp_problem()
        key = identity.workload_key(base, COST)
        flipped = _mlp_problem()
        flipped.train_x = flipped.train_x.copy()
        flipped.train_x.view(np.uint8)[5] ^= 1  # one corpus byte
        others = [
            flipped,
            _mlp_problem(batch_size=8),
            _mlp_problem(hidden=(6,)),  # a layer hyperparameter
            _mlp_problem(dtype=np.float64),
        ]
        keys = [identity.workload_key(problem, COST) for problem in others]
        keys.append(identity.workload_key(base, CostModel(tc=2e-3, tu=1e-3, t_copy=6e-4)))
        assert key not in keys
        assert len(set(keys)) == len(keys)

    def test_layer_without_spec_is_refused_by_name(self):
        layers = [Dense(16), ReLU(), Jitter(0.2), Dense(3)]
        problem = _mlp_problem(layers=layers)
        with pytest.raises(ConfigurationError, match="Jitter declares no spec"):
            identity.workload_key(problem, COST)
        with ExperimentService() as service:
            with pytest.raises(ConfigurationError, match="Jitter declares no spec"):
                service.map(problem, COST, [_dl_config()])
        # Keys only: the run itself is unaffected.
        assert run_once(problem, COST, _dl_config()).n_updates > 0

    def test_undeclared_problem_runs_but_is_not_keyed(self, tmp_path):
        problem = _Undeclared()
        config = RunConfig(algorithm="SEQ", m=1, eta=0.1, max_updates=5, max_virtual_time=10.0)
        assert run_once(problem, COST, config).n_updates > 0
        with pytest.raises(ConfigurationError, match="_Undeclared"):
            identity.problem_fingerprint(problem)
        with pytest.raises(ConfigurationError, match="_Undeclared"):
            RunCache(tmp_path).get(problem, COST, config)


_QUADRATIC = st.tuples(
    st.sampled_from([1, 2, 5]),  # d
    st.sampled_from([1.0, 0.5]),  # h
    st.sampled_from([0.0, 1.5, -2.0]),  # b
    st.sampled_from([0.0, 0.1]),  # noise sigma
    st.sampled_from([5.0, 1.0]),  # init radius
    st.sampled_from(["float32", "float64"]),
)
_MLP = st.tuples(
    st.integers(1, 3),  # input dim
    st.lists(st.integers(1, 3), max_size=2).map(tuple),  # hidden widths
    st.integers(2, 3),  # classes
    st.sampled_from([2, 4]),  # batch size
)


def _quadratic(d, h, b, sigma, radius, dtype):
    return QuadraticProblem(d, h=h, b=b, noise_sigma=sigma, init_radius=radius, dtype=dtype)


def _mlp(input_dim, hidden, n_classes, batch_size):
    return _mlp_problem(input_dim, hidden, n_classes, batch_size=batch_size)


class TestIdentityProperty:
    """The key is a function of the declared parameters, and only of
    them: fresh objects built from equal parameters share it, and
    different parameters never do."""

    @given(_QUADRATIC, _QUADRATIC)
    def test_quadratic(self, a, b):
        key_a = identity.problem_fingerprint(_quadratic(*a))
        assert identity.problem_fingerprint(_quadratic(*a)) == key_a
        assert (identity.problem_fingerprint(_quadratic(*b)) == key_a) == (a == b)

    @given(_MLP, _MLP)
    def test_mlp_custom(self, a, b):
        key_a = identity.problem_fingerprint(_mlp(*a))
        assert identity.problem_fingerprint(_mlp(*a)) == key_a
        assert (identity.problem_fingerprint(_mlp(*b)) == key_a) == (a == b)
