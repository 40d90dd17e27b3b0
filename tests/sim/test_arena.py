"""BufferArena: pooled payload recycling and its safety story.

The pool must be invisible to the algorithms (same buffers round-trip,
same results bit for bit) while keeping the use-after-free detection of
Algorithm 1's reclamation scheme fully intact — including the one
hazard reclamation cannot catch (a raw alias captured before release),
which poison mode turns into loud NaN propagation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.memory_model import baseline_instances, leashed_max_instances
from repro.core.parameter_vector import ParameterVector
from repro.errors import SimulationError
from repro.sim.arena import BufferArena
from repro.sim.memory import MemoryAccountant

from tests.core.conftest import run_algorithm


class TestFreeList:
    def test_round_trip_returns_same_buffer(self):
        arena = BufferArena()
        buf = arena.acquire(64)
        buf[...] = 7.0
        arena.release(buf)
        again = arena.acquire(64)
        assert again is buf  # recycled, not reallocated

    def test_keyed_by_size_and_dtype(self):
        arena = BufferArena()
        b32 = arena.acquire(64, np.float32)
        arena.release(b32)
        assert arena.acquire(64, np.float64) is not b32
        assert arena.acquire(128, np.float32) is not b32
        assert arena.acquire(64, np.float32) is b32

    def test_lifo_reuse_order(self):
        arena = BufferArena()
        a, b = arena.acquire(16), arena.acquire(16)
        arena.release(a)
        arena.release(b)
        assert arena.acquire(16) is b  # most recently released first

    def test_hit_miss_accounting(self):
        arena = BufferArena()
        buf = arena.acquire(32)
        assert (arena.hits, arena.misses) == (0, 1)
        arena.release(buf)
        arena.acquire(32)
        assert (arena.hits, arena.misses) == (1, 1)
        assert arena.parked == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(SimulationError):
            BufferArena().acquire(0)

    def test_non_flat_release_rejected(self):
        with pytest.raises(SimulationError):
            BufferArena().release(np.zeros((2, 2), dtype=np.float32))


class TestPoisonMode:
    def test_released_float_buffer_is_nan_filled(self):
        arena = BufferArena(poison=True)
        buf = arena.acquire(32)
        buf[...] = 1.0
        arena.release(buf)
        assert np.isnan(buf).all()

    def test_poison_catches_stale_alias_use_after_free(self):
        """The hazard _require_live cannot see: a raw ``pv.theta`` alias
        captured before reclamation. Without poisoning, the consumer
        silently computes on recycled data; with it, the result is NaN
        and the convergence monitoring fails loudly."""
        arena = BufferArena(poison=True)
        pv = ParameterVector(8, tag="published", arena=arena)
        pv.theta[...] = 3.0
        alias = pv.theta  # simulated bug: kept past the read protocol
        pv.stale_flag = True
        assert pv.safe_delete()
        assert not np.isfinite(alias @ alias)  # loud, not silent

    def test_without_poison_stale_alias_reads_recycled_data(self):
        # Documents exactly what poison mode exists to expose.
        arena = BufferArena(poison=False)
        pv = ParameterVector(8, tag="published", arena=arena)
        pv.theta[...] = 3.0
        alias = pv.theta
        pv.stale_flag = True
        assert pv.safe_delete()
        assert np.isfinite(alias).all()


class TestParameterVectorIntegration:
    def test_release_returns_payload_to_pool(self):
        arena = BufferArena()
        pv = ParameterVector(16, tag="published", arena=arena)
        buf = pv.theta
        pv.stale_flag = True
        assert pv.safe_delete()
        assert pv.theta is None
        assert ParameterVector(16, arena=arena).theta is buf

    def test_use_after_free_still_raises_with_arena(self):
        arena = BufferArena()
        pv = ParameterVector(16, tag="published", arena=arena)
        pv.stale_flag = True
        pv.safe_delete()
        with pytest.raises(SimulationError, match="reclaimed"):
            pv.update(np.zeros(16, dtype=np.float32), 0.1)

    def test_zero_init_from_recycled_buffer(self):
        arena = BufferArena()
        dirty = arena.acquire(16)
        dirty[...] = 42.0
        arena.release(dirty)
        pv = ParameterVector(16, arena=arena, zero_init=True)
        assert pv.theta is dirty
        assert not pv.theta.any()

    def test_pool_tally_reaches_accountant(self):
        arena = BufferArena()
        memory = MemoryAccountant(lambda: 0.0)
        first = ParameterVector(16, memory=memory, arena=arena)
        first.stale_flag = True
        first.safe_delete()  # frees the block and parks the payload
        ParameterVector(16, memory=memory, arena=arena)
        assert memory.pool_misses == 1
        assert memory.pool_hits == 1


class TestLemma2WithPooling:
    """Recycling payloads must not loosen the live-instance bounds: the
    accountant counts *simulated* instances, pool hit or not."""

    @pytest.mark.parametrize("m", [4, 8])
    def test_leashed_within_lemma2_bound_pooled(self, m):
        execution = run_algorithm("LSH_psinf", m=m, arena=BufferArena())
        assert execution.memory.peak_count <= leashed_max_instances(m) + 1

    def test_baselines_hold_exactly_2m_plus_1_pooled(self):
        execution = run_algorithm("ASYNC", m=4, arena=BufferArena())
        assert execution.memory.peak_count == baseline_instances(4)
        assert execution.memory.live_count == baseline_instances(4)

    def test_steady_state_is_allocation_free(self):
        arena = BufferArena()
        execution = run_algorithm("LSH_psinf", m=4, arena=arena)
        # Publications dominate acquisitions; after warm-up every one is
        # served from the pool, so misses stay at the warm-up scale
        # while hits scale with updates.
        assert execution.memory.pool_hits > execution.trace.n_updates / 2
        assert execution.memory.pool_misses <= leashed_max_instances(4) + 8

    def test_arena_on_off_bitwise_identical(self):
        on = run_algorithm("LSH_psinf", m=4, seed=11, arena=BufferArena())
        off = run_algorithm("LSH_psinf", m=4, seed=11, arena=None)
        np.testing.assert_array_equal(on.final_theta(), off.final_theta())
        assert on.trace.n_updates == off.trace.n_updates
        np.testing.assert_array_equal(
            on.trace.staleness_values(), off.trace.staleness_values()
        )

    def test_poison_mode_does_not_perturb_results(self):
        # Poison only writes to buffers *after* release; live data and
        # therefore the training trajectory are untouched.
        plain = run_algorithm("LSH_ps1", m=4, seed=23, arena=BufferArena())
        poisoned = run_algorithm(
            "LSH_ps1", m=4, seed=23, arena=BufferArena(poison=True)
        )
        np.testing.assert_array_equal(plain.final_theta(), poisoned.final_theta())
        assert np.isfinite(plain.final_theta()).all()


class TestTrim:
    def test_trim_drops_parked_buffers(self):
        arena = BufferArena()
        bufs = [arena.acquire(64) for _ in range(4)]
        for buf in bufs:
            arena.release(buf)
        assert arena.parked == 4
        assert arena.trim() == 4
        assert arena.parked == 0

    def test_keep_per_key_bounds_each_free_list(self):
        arena = BufferArena()
        for size in (32, 64):
            bufs = [arena.acquire(size) for _ in range(3)]
            for buf in bufs:
                arena.release(buf)
        assert arena.trim(keep_per_key=1) == 4
        assert arena.parked == 2

    def test_trim_empty_arena_is_noop(self):
        arena = BufferArena()
        assert arena.trim() == 0

    def test_negative_keep_rejected(self):
        with pytest.raises(SimulationError):
            BufferArena().trim(keep_per_key=-1)

    def test_trimmed_keys_reallocate_fresh(self):
        arena = BufferArena()
        buf = arena.acquire(16)
        arena.release(buf)
        arena.trim()
        again = arena.acquire(16)
        assert again is not buf  # the parked buffer really was dropped
        assert arena.misses == 2

