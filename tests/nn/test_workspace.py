"""A worker's gradient stream: the kernel of one must be invisible.

``DLGradTask.run`` computes in a :class:`ReplicaKernel` over a group of
one, whose slabs are reused across calls; that may change *where* bytes
live but never *what* is computed, checked bit for bit against the
allocating ``Network.loss_and_grad`` on both paper architectures,
together with the declined-request path and the slot-view memo
(:class:`StepWorkspace`) the kernel reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import DLProblem
from repro.data.batcher import MiniBatcher
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.nn.architectures import cnn_mnist, mlp_mnist
from repro.nn.replica import ReplicaKernel
from repro.nn.workspace import StepWorkspace

BATCH = 8


def _problem(net, *, n=64, batch=BATCH, dtype=np.float32, seed=0) -> DLProblem:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + net.input_shape).astype(np.float32)
    y = rng.integers(0, net.output_shape[0], size=n)
    return DLProblem(net, x, y, x[:8], y[:8], batch_size=batch, dtype=dtype)


def twin_batcher(problem: DLProblem, seed: int) -> MiniBatcher:
    """Replays the index stream of ``problem.make_grad_task(default_rng(seed))``."""
    return MiniBatcher(
        problem.train_x, problem.train_y, problem.batch_size, np.random.default_rng(seed)
    )


def reference_gradient(problem: DLProblem, batcher: MiniBatcher, theta: np.ndarray) -> np.ndarray:
    """The allocating path on the batch ``batcher`` draws next (shared
    with ``tests/sim/test_replica.py`` and ``tests/nn/test_kernel_model.py``)."""
    idx = batcher.next_batch_indices()
    with np.errstate(over="ignore", invalid="ignore"):
        _, grad = problem.network.loss_and_grad(
            problem.train_x[idx], problem.train_y[idx], theta
        )
    return grad


@pytest.fixture(params=["mlp", "cnn"])
def net(request):
    return mlp_mnist() if request.param == "mlp" else cnn_mnist()


@pytest.fixture
def executes(monkeypatch) -> list[int]:
    """Group sizes of every ``ReplicaKernel.execute`` call."""
    sizes: list[int] = []
    execute = ReplicaKernel.execute

    def spy(self, gcs):
        sizes.append(len(gcs))
        return execute(self, gcs)

    monkeypatch.setattr(ReplicaKernel, "execute", spy)
    return sizes


class TestBitwiseIdentity:
    def test_workspace_matches_allocating_path(self, net, executes):
        problem = _problem(net)
        theta = problem.init_theta(np.random.default_rng(3))
        grad = np.empty_like(theta)
        problem.make_grad_task(np.random.default_rng(1)).run(theta, grad)
        assert executes == [1]
        np.testing.assert_array_equal(
            grad, reference_gradient(problem, twin_batcher(problem, 1), theta)
        )

    def test_identity_survives_buffer_reuse(self, net, executes):
        # Later calls read dirty kernel slabs — their contents must
        # never leak into the result.
        problem = _problem(net)
        theta = problem.init_theta(np.random.default_rng(4))
        grad = np.empty_like(theta)
        task = problem.make_grad_task(np.random.default_rng(1))
        twin = twin_batcher(problem, 1)
        for _ in range(3):
            task.run(theta, grad)
            np.testing.assert_array_equal(grad, reference_gradient(problem, twin, theta))
            theta -= 0.05 * grad
        assert executes == [1, 1, 1]


class TestFallback:
    def test_mismatched_batch_takes_allocating_path(self, net, executes):
        # Nothing is declined by size any more: a corpus smaller than
        # the configured batch clips the batcher, the kernel is sized
        # from the batcher, and its bits are the allocating path's at
        # that size.
        problem = _problem(net, n=BATCH - 3)
        theta = problem.init_theta(np.random.default_rng(5))
        grad = np.empty_like(theta)
        task = problem.make_grad_task(np.random.default_rng(1))
        task.run(theta, grad)
        assert task.batcher.batch_size == BATCH - 3
        assert executes == [1]
        np.testing.assert_array_equal(
            grad, reference_gradient(problem, twin_batcher(problem, 1), theta)
        )

    def test_mismatched_dtype_takes_allocating_path(self, net, executes):
        # float64 parameters on a float32 problem: the kernel is built
        # for float32, so the request steps aside to the allocating
        # path (which convert-copies the batch) instead of failing.
        problem = _problem(net)
        theta = problem.init_theta(np.random.default_rng(6)).astype(np.float64)
        grad = np.empty_like(theta)
        task = problem.make_grad_task(np.random.default_rng(1))
        twin = twin_batcher(problem, 1)
        for _ in range(2):
            task.run(theta, grad)
            np.testing.assert_array_equal(grad, reference_gradient(problem, twin, theta))
        assert executes == []
        # ... and the same task still serves float32 requests stacked,
        # continuing the one index stream.
        theta32 = theta.astype(np.float32)
        grad32 = np.empty_like(theta32)
        task.run(theta32, grad32)
        assert executes == [1]
        np.testing.assert_array_equal(grad32, reference_gradient(problem, twin, theta32))


class TestViewCache:
    def test_views_memoized_per_buffer(self, net):
        ws = StepWorkspace(np.float32)
        theta = net.init_theta(np.random.default_rng(7), dtype=np.float32)
        first = ws.cached_views(theta, net._all_param_views)
        assert ws.cached_views(theta, net._all_param_views) is first
        assert first[0][0].base is theta

    def test_distinct_buffers_get_distinct_views(self, net):
        ws = StepWorkspace(np.float32)
        a = np.zeros(net.n_params, dtype=np.float32)
        b = np.zeros(net.n_params, dtype=np.float32)
        assert ws.cached_views(a, net._all_param_views) is not ws.cached_views(
            b, net._all_param_views
        )

    def test_cache_cap_clears_then_rebuilds(self):
        net = mlp_mnist()
        ws = StepWorkspace(np.float32)
        keep = np.zeros(net.n_params, dtype=np.float32)
        kept_views = ws.cached_views(keep, net._all_param_views)
        filler = [np.zeros(net.n_params, dtype=np.float32)
                  for _ in range(ws.VIEW_CACHE_CAP)]
        for arr in filler:
            ws.cached_views(arr, net._all_param_views)
        rebuilt = ws.cached_views(keep, net._all_param_views)
        assert rebuilt is not kept_views  # cap tripped, entry was rebuilt
        assert rebuilt[0][0].base is keep  # ...against the right buffer


class TestBufferedBatchDraw:
    def test_next_batch_into_matches_next_batch(self):
        corpus = generate_synthetic_mnist(n_train=256, n_eval=16, seed=9)
        x, y = corpus.train.as_flat(), corpus.train.labels
        a = MiniBatcher(x, y, BATCH, np.random.default_rng(1))
        b = MiniBatcher(x, y, BATCH, np.random.default_rng(1))
        x_buf = np.empty((BATCH,) + x.shape[1:], dtype=x.dtype)
        y_buf = np.empty(BATCH, dtype=y.dtype)
        # Past _INDEX_BLOCK_BATCHES draws: the block refill must keep
        # producing the per-call sequence across its boundary.
        for _ in range(MiniBatcher._INDEX_BLOCK_BATCHES + 6):
            xa, ya = a.next_batch()
            xb, yb = b.next_batch_into(x_buf, y_buf)
            assert xb is x_buf and yb is y_buf
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
