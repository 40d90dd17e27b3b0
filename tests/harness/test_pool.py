"""Tests for the persistent worker pool and shm problem broadcast."""

from __future__ import annotations

import errno
import gc
import glob
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.core.problem import DLProblem, QuadraticProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.harness.cache import simulation_fingerprint
from repro.harness.config import RunConfig
from repro.harness.pool import (
    MIN_SHM_BYTES,
    WorkerPool,
    load_broadcast_payload,
    make_broadcast,
)
from repro.harness.runner import run_once
from repro.nn.architectures import mlp_custom
from repro.sim.cost import CostModel
from repro.utils.shm import attach_segment, segment_of

from tests.conftest import service_map


@pytest.fixture(scope="module")
def cost():
    return CostModel(tc=2e-3, tu=1e-3, t_copy=5e-4)


@pytest.fixture
def two_cores(monkeypatch):
    """Pretend the host has two cores so the pool path engages (the CI
    host may be single-core, where resolve_workers caps at serial)."""
    monkeypatch.setattr("repro.service.experiment.os.cpu_count", lambda: 2)


def make_config(seed=0, algorithm="ASYNC", m=2, max_updates=60):
    return RunConfig(
        algorithm=algorithm, m=m, eta=0.05, seed=seed,
        epsilons=(0.5, 0.1), max_updates=max_updates, max_virtual_time=10.0,
    )


class BigArrayProblem(QuadraticProblem):
    """A problem whose curvature array is large enough for the shm hoist."""

    def __init__(self):
        d = MIN_SHM_BYTES // 8 + 16  # h is float64: nbytes > MIN_SHM_BYTES
        super().__init__(d, h=1.0, b=1.0, noise_sigma=0.1)


class CrashOnceProblem(QuadraticProblem):
    """Kills the first worker process that initializes it, exactly once.

    ``flag_path`` makes the crash one-shot across respawned workers;
    the parent pid guard keeps the serial reference runs alive.
    """

    def __init__(self, flag_path):
        super().__init__(32, h=1.0, b=1.0, noise_sigma=0.1)
        self.flag_path = str(flag_path)
        self.parent_pid = os.getpid()

    def init_theta(self, rng):
        if os.getpid() != self.parent_pid and not os.path.exists(self.flag_path):
            open(self.flag_path, "w").close()
            os._exit(3)
        return super().init_theta(rng)


class TestBroadcast:
    def test_shm_round_trip_is_bitwise(self, cost):
        problem = BigArrayProblem()
        broadcast = make_broadcast(problem, cost)
        try:
            assert broadcast.mode == "shm"
            assert len(broadcast.segments) >= 1
            assert broadcast.shm_bytes >= MIN_SHM_BYTES
            loaded, loaded_cost, attached = load_broadcast_payload(broadcast.payload)
            try:
                np.testing.assert_array_equal(loaded.h, problem.h)
                assert not loaded.h.flags.writeable
                config = make_config()
                assert simulation_fingerprint(
                    run_once(loaded, loaded_cost, config)
                ) == simulation_fingerprint(run_once(problem, cost, config))
            finally:
                for handle in attached:
                    handle.close()
        finally:
            broadcast.close()

    def test_small_arrays_stay_inline(self, cost):
        broadcast = make_broadcast(QuadraticProblem(32), cost)
        try:
            assert broadcast.mode == "shm" and broadcast.segments == []
        finally:
            broadcast.close()

    def test_shm_unavailable_degrades_to_pickle(self, cost, monkeypatch):
        monkeypatch.setattr("repro.utils.shm._shm_module", lambda: None)
        problem = BigArrayProblem()
        broadcast = make_broadcast(problem, cost)
        assert broadcast.mode == "pickle" and broadcast.segments == []
        loaded, loaded_cost = pickle.loads(broadcast.payload)
        config = make_config()
        assert simulation_fingerprint(
            run_once(loaded, loaded_cost, config)
        ) == simulation_fingerprint(run_once(problem, cost, config))

    def test_shm_oserror_degrades_to_pickle(self, cost, monkeypatch):
        class _NoShm:
            class SharedMemory:
                def __init__(self, *args, **kwargs):
                    raise OSError("no /dev/shm")

        monkeypatch.setattr("repro.utils.shm._shm_module", lambda: _NoShm)
        broadcast = make_broadcast(BigArrayProblem(), cost)
        assert broadcast.mode == "pickle"

    def test_unpicklable_payload_warns_and_returns_none(self, cost):
        problem = QuadraticProblem(32)
        problem.bad_closure = lambda: None
        with pytest.warns(RuntimeWarning, match="payload not picklable"):
            assert make_broadcast(problem, cost) is None


class TestWorkerPool:
    def test_pool_matches_serial(self, cost, two_cores):
        problem = BigArrayProblem()
        configs = [make_config(seed=s) for s in range(4)]
        serial = [run_once(problem, cost, c) for c in configs]
        with WorkerPool(2) as pool:
            results = service_map(problem, cost, configs, pool=pool)
        for got, want in zip(results, serial):
            assert simulation_fingerprint(got) == simulation_fingerprint(want)

    def test_pool_reused_across_map_runs(self, cost, two_cores):
        problem = BigArrayProblem()
        configs = [make_config(seed=s) for s in range(4)]
        with WorkerPool(2) as pool:
            service_map(problem, cost, configs, pool=pool)
            service_map(problem, cost, configs, pool=pool)
            assert pool.stats.spawns == 1
            assert pool.stats.broadcasts == 1
            assert pool.stats.chunks_completed == 8

    def test_ping(self, two_cores):
        with WorkerPool(2) as pool:
            assert pool.ping()
        assert not pool.ping()  # closed
        assert not WorkerPool(1).ping()  # serial: no processes to answer

    def test_unpicklable_problem_falls_back_to_serial(self, cost, two_cores):
        problem = QuadraticProblem(32)
        problem.bad_closure = lambda: None
        configs = [make_config(seed=s) for s in range(3)]
        reference = QuadraticProblem(32)
        serial = [run_once(reference, cost, c) for c in configs]
        with pytest.warns(RuntimeWarning, match="payload not picklable"):
            results = service_map(problem, cost, configs, workers=2)
        for got, want in zip(results, serial):
            assert simulation_fingerprint(got) == simulation_fingerprint(want)

    def test_worker_crash_respawns_and_completes(self, cost, two_cores, tmp_path):
        problem = CrashOnceProblem(tmp_path / "crashed-once")
        configs = [make_config(seed=s) for s in range(4)]
        serial = [run_once(problem, cost, c) for c in configs]
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="respawning"):
                results = service_map(problem, cost, configs, pool=pool)
            assert pool.stats.respawns >= 1
        for got, want in zip(results, serial):
            assert simulation_fingerprint(got) == simulation_fingerprint(want)

    def test_crash_beyond_respawn_budget_finishes_serially(
        self, cost, two_cores, monkeypatch, tmp_path
    ):
        # A flag path that never exists makes every worker crash; after
        # max_respawns the serial pass must still deliver every result.
        problem = CrashOnceProblem(tmp_path / "never-created")
        monkeypatch.setattr(
            CrashOnceProblem, "init_theta",
            lambda self, rng: (
                os._exit(3) if os.getpid() != self.parent_pid
                else QuadraticProblem.init_theta(self, rng)
            ),
        )
        configs = [make_config(seed=s) for s in range(3)]
        serial = [run_once(problem, cost, c) for c in configs]
        with WorkerPool(2, max_respawns=1) as pool:
            with pytest.warns(RuntimeWarning):
                results = service_map(problem, cost, configs, pool=pool)
            assert pool.stats.respawns >= 1
        for got, want in zip(results, serial):
            assert simulation_fingerprint(got) == simulation_fingerprint(want)

    def test_close_releases_segments(self, cost, two_cores):
        pool = WorkerPool(2)
        broadcast = pool.broadcast_for(BigArrayProblem(), cost)
        assert broadcast.mode == "shm" and pool.stats.shm_bytes > 0
        pool.close()
        assert pool.stats.shm_bytes == 0
        assert broadcast.segments == []


class TestFinalizers:
    """Abnormal exits must not leak /dev/shm segments (the GC backstop
    behind ``close()``)."""

    def test_broadcast_finalizer_releases_segments(self, cost):
        import gc

        from multiprocessing import shared_memory

        broadcast = make_broadcast(BigArrayProblem(), cost)
        assert broadcast.mode == "shm"
        names = [segment.name for segment in broadcast.segments]
        assert names
        del broadcast  # dropped without close(): the crash/exception path
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pool_finalizer_releases_broadcasts(self, cost, two_cores):
        import gc

        from multiprocessing import shared_memory

        pool = WorkerPool(2)
        broadcast = pool.broadcast_for(BigArrayProblem(), cost)
        names = [segment.name for segment in broadcast.segments]
        assert names
        del broadcast
        del pool  # never close()d — e.g. a KeyboardInterrupt unwound past it
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_then_finalizer_is_idempotent(self, cost):
        import gc

        broadcast = make_broadcast(BigArrayProblem(), cost)
        broadcast.close()
        assert broadcast.segments == []
        del broadcast
        gc.collect()  # the detached finalizer must not double-unlink


def corpus_problem(corpus) -> DLProblem:
    """A small MLP over a generated corpus's splits, as the CLI and the
    benchmark build one: views of the corpus arrays, no copy."""
    return DLProblem(
        mlp_custom(28 * 28, (16,), 10, name="corpus_mlp"),
        corpus.train.as_flat(), corpus.train.labels,
        corpus.eval.as_flat(), corpus.eval.labels, batch_size=16,
    )


def heap_copy(problem: DLProblem) -> DLProblem:
    return DLProblem(
        problem.network, np.array(problem.train_x), np.array(problem.train_y),
        np.array(problem.eval_x), np.array(problem.eval_y), batch_size=problem.batch_size,
    )


def dl_config(seed=0):
    return RunConfig(
        algorithm="LSH_ps1", m=2, eta=0.05, seed=seed, epsilons=(1e-9,), max_updates=12,
        max_virtual_time=1e18,
    )


def shm_names() -> set:
    return {os.path.basename(path) for path in glob.glob("/dev/shm/psm_*")}


def _drop_and_collect(box):  # pragma: no cover - runs in a forked child
    box.clear()
    gc.collect()


class TestCorpusBroadcast:
    """A corpus born in shared memory ships by name: the broadcast
    adopts its segments instead of copying them."""

    def test_adopts_the_corpus_segments(self):
        cost = CostModel.mlp_default()
        problem = corpus_problem(generate_synthetic_mnist(n_train=128, n_eval=32, seed=3))
        broadcast = make_broadcast(problem, cost)
        copied = make_broadcast(heap_copy(problem), cost)
        try:
            assert broadcast.mode == "shm" and broadcast.segments == []
            assert [segment_of(array) is not None for array in broadcast.adopted] == [True, True]
            assert copied.segments and copied.adopted == []
            assert broadcast.shm_bytes == copied.shm_bytes > 0
        finally:
            broadcast.close()
            copied.close()

    def test_workers_read_the_same_bytes_and_runs(self):
        cost = CostModel.mlp_default()
        problem = corpus_problem(generate_synthetic_mnist(n_train=128, n_eval=32, seed=3))
        broadcast = make_broadcast(problem, cost)
        try:
            loaded, loaded_cost, attached = load_broadcast_payload(broadcast.payload)
            try:
                for name in ("train_x", "train_y", "eval_x", "eval_y"):
                    got, want = getattr(loaded, name), getattr(problem, name)
                    assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert not loaded.train_x.flags.writeable
                assert not loaded.eval_x.flags.writeable
                assert simulation_fingerprint(
                    run_once(loaded, loaded_cost, dl_config())
                ) == simulation_fingerprint(run_once(problem, cost, dl_config()))
            finally:
                del loaded
                for handle in attached:
                    handle.close()
        finally:
            broadcast.close()

    def test_the_corpus_owns_its_segments(self):
        corpus = generate_synthetic_mnist(n_train=128, n_eval=32, seed=3)
        problem = corpus_problem(corpus)
        broadcast = make_broadcast(problem, CostModel.mlp_default())
        names = [segment_of(array)[0] for array in broadcast.adopted]
        broadcast.close()  # a broadcast never unlinks what it adopted
        for name in names:
            attach_segment(name).close()
        del broadcast, problem, corpus
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_segment(name)

    def test_a_forked_child_never_unlinks_the_parents_segment(self):
        box = [generate_synthetic_mnist(n_train=128, n_eval=32, seed=3).train.images]
        name, _ = segment_of(box[0])
        child = multiprocessing.get_context("fork").Process(target=_drop_and_collect, args=(box,))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        attach_segment(name).close()
        box.clear()
        gc.collect()
        with pytest.raises(FileNotFoundError):
            attach_segment(name)

    def test_a_full_dev_shm_falls_back_to_the_heap(self, monkeypatch):
        want = generate_synthetic_mnist(n_train=128, n_eval=32, seed=3)
        before = shm_names()

        def enospc(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", enospc)
        corpus = generate_synthetic_mnist(n_train=128, n_eval=32, seed=3)
        for split, reference in ((corpus.train, want.train), (corpus.eval, want.eval)):
            assert segment_of(split.images) is None
            assert split.images.tobytes() == reference.images.tobytes()
            assert split.labels.tobytes() == reference.labels.tobytes()
        broadcast = make_broadcast(corpus_problem(corpus), CostModel.mlp_default())
        assert broadcast.mode == "pickle" and broadcast.segments == []
        assert shm_names() == before  # every refused reservation was unlinked
