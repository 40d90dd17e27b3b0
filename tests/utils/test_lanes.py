"""The helper lanes of a kernel step (``repro.utils.lanes``).

Tests force the width through the module's resolved ``_width`` (the
production width comes from the CPU affinity and the BLAS thread
variables, which a test host does not control); ``reset_lanes`` stops
the test's own helper group and puts the width and the process's group
back afterwards.
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
    yield monkeypatch
    if lanes._group is not None:  # the test's own group: end its threads
        lanes._group.stop()


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
        """Every share runs once, share 0 on the caller. While the
        caller holds share 0, the ``min(width, count) - 1`` helpers run
        every other share; at width 1 all run inline, in order."""
        force_width(reset_lanes, width)
        caller = threading.current_thread()
        n_lanes = max(1, min(width, count))
        ran: list = []
        cond = threading.Condition()

        def fn(r):
            with cond:
                assert r not in [q for q, _ in ran]
                ran.append((r, threading.current_thread()))
                cond.notify_all()
                if r == 0 and n_lanes > 1:
                    assert cond.wait_for(lambda: len(ran) == count, timeout=10)

        lanes.each(count, fn)
        assert sorted(r for r, _ in ran) == list(range(count))
        if n_lanes == 1:
            assert ran == [(r, caller) for r in range(count)]
            return
        threads = dict(ran)
        assert threads[0] is caller
        helpers = {threads[r] for r in range(1, count)}
        assert caller not in helpers and len(helpers) <= n_lanes - 1
        assert helpers <= set(lanes._group.threads)

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
        # Every other share finished before the caller saw the error.
        assert sorted(done) == [r for r in range(4) if r != failing]
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
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                if lanes._group is None:
                    seen = set()
                    lanes.each(2, seen.add)
                    alive = lanes._group is not None and all(
                        t.is_alive() for t in lanes._group.threads
                    )
                    code = 0 if seen == {0, 1} and alive else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestFork:
    def test_idle_helpers_are_joined_before_a_fork(self, reset_lanes):
        """A fork after a threaded ``each`` finds none of its helper
        threads alive (Python 3.12 warns about forking a multi-threaded
        process), and the next ``each`` starts the group again."""
        force_width(reset_lanes, 3)
        lanes.each(3, lambda r: None)
        helpers = list(lanes._group.threads)
        assert len(helpers) == 2 and all(t.is_alive() for t in helpers)
        # Recorded, not raised: CPython 3.12 drops the fork warning when
        # the filter turns it into an error.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            os._exit(0)
        # The hook ran before the fork, and nothing has run since.
        assert not any(t.is_alive() for t in helpers) and lanes._group is None
        assert not [w for w in caught if "multi-threaded" in str(w.message)]
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        lanes.each(3, lambda r: None)
        assert len(lanes._group.threads) == 2 and not set(lanes._group.threads) & set(helpers)

    def test_a_busy_group_is_left_running(self, reset_lanes):
        """A fork from inside ``each`` (share 0, while the group serves
        the call) leaves the serving group alone; the child starts
        without it and runs its own ``each`` on its own helpers."""
        force_width(reset_lanes, 2)
        release = threading.Event()
        status = []

        def fn(r):
            if r == 1:
                release.wait(10)
                return
            group = lanes._group
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    seen = set()
                    lanes.each(2, seen.add)
                    code = 0 if lanes._group not in (None, group) and seen == {0, 1} else 2
                finally:
                    os._exit(code)
            assert lanes._group is group and all(t.is_alive() for t in group.threads)
            release.set()
            status.append(os.waitpid(pid, 0)[1])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, 3.12+
            lanes.each(2, fn)
        assert [os.waitstatus_to_exitcode(s) for s in status] == [0]
