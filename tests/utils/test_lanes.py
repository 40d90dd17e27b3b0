"""The helper lanes of a kernel step (``repro.utils.lanes``).

Tests force the width through the module's resolved ``_width`` (the
production width comes from the CPU affinity and the BLAS thread
variables, which a test host does not control); ``reset_lanes`` puts
the width and the helper group back afterwards.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref

import numpy as np
import pytest

from repro.utils import lanes


@pytest.fixture
def reset_lanes(monkeypatch):
    monkeypatch.setattr(lanes, "_width", None)
    monkeypatch.setattr(lanes, "_group", None)
    return monkeypatch


def force_width(monkeypatch, width: int) -> None:
    monkeypatch.setattr(lanes, "_width", width)


class TestWidth:
    @pytest.mark.parametrize(
        "env, pinned",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"GOTO_NUM_THREADS": "0"}, False),
        ],
    )
    def test_one_lane_unless_blas_is_pinned_to_one_thread(self, reset_lanes, env, pinned):
        for name in lanes._BLAS_THREAD_ENV:
            reset_lanes.delenv(name, raising=False)
        for name, value in env.items():
            reset_lanes.setenv(name, value)
        cores = len(os.sched_getaffinity(0))
        assert lanes.width() == (cores if pinned else 1)

    def test_confine_runs_everything_inline(self, reset_lanes):
        force_width(reset_lanes, 3)
        lanes.confine()
        assert lanes.width() == 1
        seen = []
        lanes.each(5, lambda r: seen.append((r, threading.current_thread())))
        assert seen == [(r, threading.current_thread()) for r in range(5)]
        assert lanes._group is None


class TestEach:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
    def test_every_request_once_on_its_lane(self, reset_lanes, width, count):
        force_width(reset_lanes, width)
        caller = threading.current_thread()
        ran: dict[int, threading.Thread] = {}
        lock = threading.Lock()

        def fn(r):
            with lock:
                assert r not in ran
                ran[r] = threading.current_thread()

        lanes.each(count, fn)
        assert sorted(ran) == list(range(count))
        n_lanes = max(1, min(width, count))
        for r, thread in ran.items():
            assert (thread is caller) == (r % n_lanes == 0)
        by_lane = {r % n_lanes: thread for r, thread in ran.items()}
        assert len(set(by_lane.values())) == len(by_lane)

    def test_not_threaded_runs_inline(self, reset_lanes):
        force_width(reset_lanes, 2)
        threads = set()
        lanes.each(4, lambda r: threads.add(threading.current_thread()), threaded=False)
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_exception_reraises_on_the_caller_after_every_share(self, reset_lanes, failing):
        force_width(reset_lanes, 2)
        done = []

        def fn(r):
            if r == failing:
                raise ValueError(f"request {r}")
            done.append(r)

        with pytest.raises(ValueError, match=f"request {failing}"):
            lanes.each(4, fn)
        # The failing share stopped there; the other lane's share
        # finished before the caller saw the error.
        assert sorted(done) == [r for r in range(4) if r % 2 != failing]
        # The group survives a failed share.
        done.clear()
        lanes.each(4, done.append)
        assert sorted(done) == [0, 1, 2, 3]

    def test_helpers_run_under_the_callers_errstate(self, reset_lanes):
        force_width(reset_lanes, 2)
        big = np.full(4, 3e38, dtype=np.float32)

        def overflow(r):
            big * np.float32(10)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                lanes.each(2, overflow)
            # Without it, the helper's overflow is the caller's error.
            with np.errstate(over="warn"), pytest.raises(RuntimeWarning, match="overflow"):
                lanes.each(2, lambda r: r == 1 and overflow(r))

    def test_an_idle_helper_keeps_no_buffer_alive(self, reset_lanes):
        force_width(reset_lanes, 2)
        buffer = np.zeros(8)
        alive = weakref.ref(buffer)

        def fill(r, buffer=buffer):
            buffer[r] = r

        lanes.each(2, fill)
        assert buffer.tolist()[:2] == [0.0, 1.0]
        del buffer, fill
        assert alive() is None

    def test_a_second_caller_runs_inline_while_the_group_is_busy(self, reset_lanes):
        force_width(reset_lanes, 2)
        inner_threads = set()
        release = threading.Event()

        def outer(r):
            if r == 0:  # the caller's share: another thread calls meanwhile
                other = threading.Thread(
                    target=lanes.each,
                    args=(3, lambda q: inner_threads.add(threading.current_thread())),
                )
                other.start()
                other.join()
                inner_threads.add(other)
                release.set()
            else:
                release.wait(10)

        lanes.each(2, outer)
        assert len(inner_threads) == 1  # the second caller's own thread only

    def test_a_forked_child_starts_its_own_group(self, reset_lanes):
        force_width(reset_lanes, 2)
        lanes.each(2, lambda r: None)
        assert lanes._group is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, 3.12+
            pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                if lanes._group is None:
                    seen = set()
                    lanes.each(2, lambda r: seen.add(threading.current_thread().name))
                    code = 0 if len(seen) == 2 else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
