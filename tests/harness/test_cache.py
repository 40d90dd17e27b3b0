"""Tests for the content-addressed run cache."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.convergence import RunStatus
from repro.core.problem import DLProblem, QuadraticProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.harness.cache import (
    CACHE_ENV,
    RunCache,
    cache_key,
    problem_fingerprint,
    resolve_cache_dir,
    simulation_fingerprint,
)
from repro.harness.config import RunConfig
from repro.harness.runner import run_once
from repro.identity import _identity_digest, result_to_line
from repro.nn.architectures import cnn_mnist
from repro.sim.cost import CostModel
from repro.telemetry.bus import ProbeBus

from tests.conftest import service_map


@pytest.fixture(scope="module")
def problem():
    return QuadraticProblem(32, h=1.0, b=1.0, noise_sigma=0.1)


@pytest.fixture(scope="module")
def cost():
    return CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


def make_config(seed=0, eta=0.05, **kwargs):
    kwargs.setdefault("max_updates", 60)
    kwargs.setdefault("max_virtual_time", 10.0)
    kwargs.setdefault("epsilons", (0.5, 0.1))
    return RunConfig(algorithm="ASYNC", m=2, eta=eta, seed=seed, **kwargs)


class TestCacheKey:
    def test_stable_across_calls(self, problem, cost):
        config = make_config()
        assert cache_key(problem, cost, config) == cache_key(problem, cost, config)

    @pytest.mark.parametrize("other", [make_config(seed=1), make_config(eta=0.06)])
    def test_config_changes_key(self, problem, cost, other):
        assert cache_key(problem, cost, make_config()) != cache_key(problem, cost, other)

    def test_problem_data_changes_key(self, cost):
        config = make_config()
        one = QuadraticProblem(32, h=1.0, b=1.0, noise_sigma=0.1)
        two = QuadraticProblem(32, h=1.0, b=1.5, noise_sigma=0.1)
        assert cache_key(one, cost, config) != cache_key(two, cost, config)

    def test_cost_changes_key(self, problem):
        config = make_config()
        assert cache_key(
            problem, CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4), config
        ) != cache_key(problem, CostModel(tc=3e-3, tu=1e-3, t_copy=5e-4), config)

    def test_fingerprint_memoized_per_object(self, problem):
        assert problem_fingerprint(problem) == problem_fingerprint(problem)
        clone = QuadraticProblem(32, h=1.0, b=1.0, noise_sigma=0.1)
        assert problem_fingerprint(problem) == problem_fingerprint(clone)


def _raw_fingerprint(problem) -> str:
    """``problem_fingerprint`` without its per-object memo: what a fresh
    process (or an unpickled copy) would compute now."""
    return _identity_digest(problem)


class TestFingerprintIsStableUnderUse:
    """Nothing a run or an evaluation does may hang state on the
    problem, its network or the layers: a problem that ran once and is
    hashed again under a new ``id`` must get the same cache key."""

    @pytest.fixture()
    def cnn_problem(self):
        corpus = generate_synthetic_mnist(n_train=128, n_eval=32, seed=3)
        return DLProblem(
            cnn_mnist(), corpus.train.as_images(), corpus.train.labels,
            corpus.eval.as_images(), corpus.eval.labels, batch_size=8,
        )

    def test_unchanged_by_a_run(self, cnn_problem):
        before = _raw_fingerprint(cnn_problem)
        config = RunConfig(algorithm="ASYNC", m=2, eta=0.01, seed=0, max_updates=4)
        run_once(cnn_problem, CostModel.cnn_default(), config)  # serial backward included
        assert _raw_fingerprint(cnn_problem) == before
        assert problem_fingerprint(cnn_problem) == before

    def test_unchanged_by_an_evaluation(self, cnn_problem):
        before = _raw_fingerprint(cnn_problem)
        theta = cnn_problem.init_theta(np.random.default_rng(0))
        cnn_problem.eval_loss(theta)
        cnn_problem.eval_accuracy(theta)
        assert _raw_fingerprint(cnn_problem) == before


def put(cache, problem, cost, config, result):
    """Store ``result`` as the service does: with its canonical line."""
    return cache.put(problem, cost, config, result, result_to_line(result))


class TestRoundTrip:
    def test_put_get_bitwise(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        config = make_config()
        result = run_once(problem, cost, config)
        assert put(cache, problem, cost, config, result)
        served, line, payload = cache.get(problem, cost, config)
        assert line == result_to_line(result)  # the entry's text, as stored
        assert payload == json.loads(line)  # ... and its one parse
        assert simulation_fingerprint(served) == simulation_fingerprint(result)
        assert served.config == result.config
        assert served.status is result.status
        assert served.report.final_loss == result.report.final_loss
        assert served.report.threshold_times == result.report.threshold_times
        assert served.n_updates == result.n_updates
        assert served.virtual_time == result.virtual_time
        np.testing.assert_array_equal(served.staleness_values, result.staleness_values)

    def test_miss_on_empty_cache(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get(problem, cost, make_config()) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_warned_miss(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        config = make_config()
        put(cache, problem, cost, config, run_once(problem, cost, config))
        path = cache._path(cache_key(problem, cost, config))
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert cache.get(problem, cost, config) is None

    def test_foreign_schema_is_a_miss(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        config = make_config()
        put(cache, problem, cost, config, run_once(problem, cost, config))
        path = cache._path(cache_key(problem, cost, config))
        row = json.loads(path.read_text())
        row["schema_version"] = 99
        path.write_text(json.dumps(row))
        with pytest.warns(RuntimeWarning, match="schema_version 99 not supported"):
            assert cache.get(problem, cost, config) is None

    def test_stopped_under_wall_cap_refused(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        # A huge update budget guarantees n_updates < max_updates, so a
        # STOPPED status can only mean the host wall clock fired.
        config = make_config(max_wall_seconds=30.0, max_updates=10_000_000)
        result = run_once(problem, cost, config)
        stopped = dataclasses.replace(result, status=RunStatus.STOPPED)
        assert not put(cache, problem, cost, config, stopped)
        assert cache.stats.bypasses == 1
        assert cache.stats.stores == 0

    def test_stopped_at_update_cap_is_cacheable(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        # Even with a finite wall cap, hitting the update cap is a
        # deterministic simulation outcome and may be served back.
        config = make_config(
            max_wall_seconds=30.0, max_updates=5, eta=0.001,
            epsilons=(1e-9,),
        )
        result = run_once(problem, cost, config)
        assert result.status is RunStatus.STOPPED
        assert result.n_updates >= config.max_updates
        assert put(cache, problem, cost, config, result)
        served, _, _ = cache.get(problem, cost, config)
        assert simulation_fingerprint(served) == simulation_fingerprint(result)


class TestMapRunsIntegration:
    def test_second_pass_is_all_hits_and_bitwise(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        configs = [make_config(seed=s) for s in range(3)]
        serial = [run_once(problem, cost, c) for c in configs]
        first = service_map(problem, cost, configs, cache=cache)
        assert cache.stats.misses == 3 and cache.stats.stores == 3
        second = service_map(problem, cost, configs, cache=cache)
        assert cache.stats.hits == 3
        for a, b, c in zip(first, second, serial):
            assert simulation_fingerprint(a) == simulation_fingerprint(c)
            assert simulation_fingerprint(b) == simulation_fingerprint(c)

    def test_hit_labels_progress(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        configs = [make_config(seed=7)]
        service_map(problem, cost, configs, cache=cache)
        labels = []
        service_map(
            problem, cost, configs, cache=cache,
            progress=lambda done, total, label: labels.append(label),
        )
        assert labels and labels[0].endswith(" [cache]")

    def test_self_profile_bypasses(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        config = make_config(self_profile=True)
        service_map(problem, cost, [config], cache=cache)
        assert cache.stats.bypasses == 1
        assert cache.stats.stores == 0 and cache.stats.hits == 0

    def test_cohort_path_uses_cache(self, problem, cost, tmp_path):
        cache = RunCache(tmp_path)
        configs = [make_config(seed=s) for s in range(4)]
        serial = [run_once(problem, cost, c) for c in configs]
        service_map(problem, cost, configs, replicas=2, cache=cache)
        results = service_map(problem, cost, configs, replicas=2, cache=cache)
        assert cache.stats.hits == 4
        for got, want in zip(results, serial):
            assert simulation_fingerprint(got) == simulation_fingerprint(want)


class _BusRecorder:
    def __init__(self):
        self.events = []

    def on_cache_hit(self, key):
        self.events.append(("hit", key))

    def on_cache_miss(self, key):
        self.events.append(("miss", key))

    def on_cache_bypass(self, reason):
        self.events.append(("bypass", reason))


class TestBusEvents:
    def test_hit_miss_bypass_events(self, problem, cost, tmp_path):
        bus = ProbeBus()
        recorder = _BusRecorder()
        bus.attach(recorder)
        cache = RunCache(tmp_path, bus=bus)
        config = make_config()
        key = cache_key(problem, cost, config)
        assert cache.get(problem, cost, config) is None
        put(cache, problem, cost, config, run_once(problem, cost, config))
        assert cache.get(problem, cost, config) is not None
        cache.note_bypass("self_profile")
        assert recorder.events == [
            ("miss", key), ("hit", key), ("bypass", "self_profile")
        ]


class TestResolveCacheDir:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert resolve_cache_dir() is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "/tmp/cache-from-env")
        assert resolve_cache_dir() == "/tmp/cache-from-env"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "/tmp/cache-from-env")
        assert resolve_cache_dir("/tmp/explicit") == "/tmp/explicit"

    def test_no_cache_wins(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "/tmp/cache-from-env")
        assert resolve_cache_dir("/tmp/explicit", no_cache=True) is None
