"""InferencePlan: held-out evaluation must be invisible in the bits.

``DLProblem.eval_loss`` / ``eval_accuracy`` feed ``curve_loss``,
``threshold_times`` and ``final_accuracy``, hence every fingerprint, so
every comparison here is on bit patterns (``float.hex()``, integer
views), never ``allclose``. ``Network.loss`` / ``Network.accuracy`` /
``Network.forward`` through the training layers are the reference.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro.core.problem import DLProblem
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.errors import ShapeError
from repro.nn import inference
from repro.nn.architectures import cnn_mnist, mlp_mnist
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network

N_EVAL = 48

#: The pool-tie corpus (shared with ``tests/nn/test_kernel_model.py``):
#: few distinct values, so every pool window sees signed-zero ties,
#: equal-value ties and +-inf in every position.
TIE_VALUES = (-0.0, 0.0, -0.0, 0.0, 1.0, 1.0, -1.0, np.inf, -np.inf)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_mnist(n_train=256, n_eval=N_EVAL, seed=5)


def _dropout_net(training: bool) -> Network:
    dropout = Dropout(0.5, rng=np.random.default_rng(11))
    dropout.training = training
    return Network([Dense(32), ReLU(), dropout, Dense(10)], input_shape=(784,), name="dropout")


def _problem(kind: str, corpus, network: Network | None = None) -> DLProblem:
    if kind == "cnn":
        network = network or cnn_mnist()
        train_x, eval_x = corpus.train.as_images(), corpus.eval.as_images()
    else:
        network = network or mlp_mnist()
        train_x, eval_x = corpus.train.as_flat(), corpus.eval.as_flat()
    return DLProblem(
        network, train_x, corpus.train.labels, eval_x, corpus.eval.labels, batch_size=16
    )


def _thetas(problem: DLProblem, dtype, net: Network | None = None) -> list[np.ndarray]:
    """Initial, x5 and after 20 SGD steps (on ``net``; default the problem's)."""
    net = net or problem.network
    rng = np.random.default_rng(2)
    theta0 = net.init_theta(rng, std=0.1, dtype=dtype)
    trained = theta0.copy()
    grad = np.empty_like(trained)
    for _ in range(20):
        idx = rng.integers(0, problem.train_x.shape[0], size=16)
        net.loss_and_grad(problem.train_x[idx], problem.train_y[idx], trained, grad_out=grad)
        trained -= 0.05 * grad
    return [theta0, theta0 * 5, trained]


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _plan(problem: DLProblem, theta: np.ndarray) -> inference.InferencePlan:
    return problem._eval_plan(theta)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_paper_networks(self, kind, dtype, corpus):
        problem = _problem(kind, corpus)
        net = problem.network
        for theta in _thetas(problem, dtype):
            want_loss = net.loss(problem.eval_x, problem.eval_y, theta)
            want_acc = net.accuracy(problem.eval_x, problem.eval_y, theta)
            assert problem.eval_loss(theta).hex() == want_loss.hex()
            assert problem.eval_accuracy(theta).hex() == want_acc.hex()
            # A cold accuracy (no loss on this theta before it) too.
            assert _problem(kind, corpus, net).eval_accuracy(theta).hex() == want_acc.hex()
            logits = _plan(problem, theta).logits(theta)
            assert logits.dtype == theta.dtype
            assert _bits(logits) == _bits(net.forward(problem.eval_x, theta))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True])
    def test_unknown_layer_takes_its_own_forward(self, training, dtype, corpus):
        # Twin networks: Dropout in training mode draws from its own
        # stream on every forward, so the reference and the plan must
        # make the same sequence of forwards, accuracy included (and the
        # thetas are trained on a third twin).
        reference = _dropout_net(training)
        problem = _problem("mlp", corpus, _dropout_net(training))
        for theta in _thetas(problem, dtype, _dropout_net(training)):
            want_loss = reference.loss(problem.eval_x, problem.eval_y, theta)
            want_acc = reference.accuracy(problem.eval_x, problem.eval_y, theta)
            assert problem.eval_loss(theta).hex() == want_loss.hex()
            assert problem.eval_accuracy(theta).hex() == want_acc.hex()

    def test_split_above_the_byte_cap_rebuilds_per_call(self, corpus, monkeypatch):
        monkeypatch.setattr(inference, "PLAN_BYTES_CAP", 1024)
        problem = _problem("cnn", corpus)
        net = problem.network
        thetas = _thetas(problem, np.float32)
        plan = _plan(problem, thetas[0])
        assert plan._patches is None and plan._cols.size == 0
        assert all(flat.size == 0 for flat in plan._flat)
        for theta in thetas:
            want = net.loss(problem.eval_x, problem.eval_y, theta)
            assert problem.eval_loss(theta).hex() == want.hex()
            assert _bits(plan.logits(theta)) == _bits(net.forward(problem.eval_x, theta))

    def test_overflowing_theta_takes_the_fallback_pool(self, corpus, monkeypatch):
        problem = _problem("cnn", corpus)
        net = problem.network
        theta = _thetas(problem, np.float32)[0] * np.float32(1e20)
        assert np.all(np.isfinite(theta))
        with np.errstate(over="ignore", invalid="ignore"):
            want = net.forward(problem.eval_x, theta)
            want_loss = net.loss(problem.eval_x, problem.eval_y, theta)
            pool_calls = []
            layer_forward = MaxPool2D.forward
            monkeypatch.setattr(
                MaxPool2D, "forward",
                lambda self, x, params, **kw: pool_calls.append(x.shape)
                or layer_forward(self, x, params, **kw),
            )
            got = _plan(problem, theta).logits(theta)
        # The first pool sees finite input, the second sees NaN.
        assert pool_calls == [(N_EVAL, 8, 11, 11)]
        assert np.isnan(want).any()
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert _bits(got[finite]) == _bits(want[finite])
        got_loss = problem.eval_loss(theta)
        assert np.isnan(got_loss) == np.isnan(want_loss)
        if not np.isnan(want_loss):
            assert got_loss.hex() == want_loss.hex()


class TestBlockedFrontEnd:
    """The layers before the first ``Dense`` run ``FRONT_BLOCK`` samples
    at a time; no bit of any result may depend on where a block ends."""

    BLOCK = inference.FRONT_BLOCK

    @pytest.mark.parametrize("kind", ["cnn", "mlp"])
    @pytest.mark.parametrize("n_eval", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37])
    def test_equals_the_network_at_every_block_edge(self, kind, n_eval):
        problem = _problem(kind, generate_synthetic_mnist(n_train=64, n_eval=n_eval, seed=6))
        net = problem.network
        thetas = _thetas(problem, np.float32)
        plan = _plan(problem, thetas[0])
        if kind == "cnn":
            assert plan._front == 7  # up to and including Flatten
        else:  # a Dense comes first: nothing to block, no feature buffer
            assert plan._front == 0 and plan._features.size == 0
        for count, theta in enumerate(thetas, start=1):
            want_loss = net.loss(problem.eval_x, problem.eval_y, theta)
            want_acc = net.accuracy(problem.eval_x, problem.eval_y, theta)
            assert problem.eval_loss(theta).hex() == want_loss.hex()
            assert plan.forwards == count  # one forward per loss, however many blocks
            assert problem.eval_accuracy(theta).hex() == want_acc.hex()
            assert plan.forwards == count
        assert _bits(plan.logits(theta)) == _bits(net.forward(problem.eval_x, theta))

    def test_unretained_blocks_equal_the_network_too(self, monkeypatch):
        monkeypatch.setattr(inference, "PLAN_BYTES_CAP", 1024)
        n_eval = 2 * self.BLOCK + 37
        problem = _problem("cnn", generate_synthetic_mnist(n_train=64, n_eval=n_eval, seed=6))
        theta = _thetas(problem, np.float32)[2]
        plan = _plan(problem, theta)
        assert plan.retained_bytes == 0 and plan._features.size == 0
        assert _bits(plan.logits(theta)) == _bits(problem.network.forward(problem.eval_x, theta))

    @pytest.mark.parametrize("training", [False, True])
    def test_layer_the_plan_does_not_know_unblocks_the_front(self, training):
        # A user layer may look across samples, and Dropout draws one
        # mask per forward: the front then runs whole, layer 0 still
        # from its cached patches.
        def net():
            dropout = Dropout(0.5, rng=np.random.default_rng(11))
            dropout.training = training
            layers = [Conv2D(2, 3), ReLU(), dropout, MaxPool2D(2), Flatten(), Dense(10)]
            return Network(layers, input_shape=(1, 28, 28), name="conv-dropout")

        n_eval = 2 * self.BLOCK + 37
        corpus = generate_synthetic_mnist(n_train=64, n_eval=n_eval, seed=6)
        problem, reference = _problem("cnn", corpus, net()), net()
        theta = _thetas(problem, np.float32, net())[2]
        plan = _plan(problem, theta)
        assert plan._front == 0 and plan._patches is not None and plan._features.size == 0
        assert _bits(plan.logits(theta)) == _bits(reference.forward(problem.eval_x, theta))

    @pytest.mark.parametrize(
        "n_eval, retained", [(512, 15_369_216), (2048, 54_690_816)]
    )
    def test_cnn_plan_bytes_are_pinned(self, n_eval, retained):
        # Whole-split scratch kept 32.4 MB for 512 images and 124 MiB for
        # 2,048. What grows with the split now is the layer-0 patch
        # matrix (6,084 floats a sample) and the front-end's output (200).
        x = np.zeros((n_eval, 1, 28, 28), dtype=np.float32)
        plan = inference.InferencePlan(cnn_mnist(), x, np.zeros(n_eval, np.int64), np.float32)
        assert plan.retained_bytes == retained <= inference.PLAN_BYTES_CAP
        buffers = [plan._patches, plan._cols, plan._features, *plan._flat]
        assert sum(buffer.nbytes for buffer in buffers) == retained
        assert plan._patches.nbytes == n_eval * 6084 * 4


class TestPoolTies:
    """The comparison tree against ``argmax`` + ``take_along_axis``."""

    def _pool_only(self, x: np.ndarray, pool=2):
        net = Network([MaxPool2D(pool), Flatten()], input_shape=x.shape[1:], name="pool")
        theta = np.empty(0, dtype=x.dtype)
        y = np.zeros(x.shape[0], dtype=np.int64)
        plan = inference.InferencePlan(net, x, y, x.dtype)
        return plan.logits(theta), net.forward(x, theta)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_and_equal_value_ties_in_every_position(self, dtype):
        # Odd H, W: the paper's 11x11 -> 5x5 crop. Few distinct values,
        # many samples: every window sees every tie pattern.
        values = np.array(TIE_VALUES, dtype=dtype)
        rng = np.random.default_rng(0)
        x = values[rng.integers(0, values.size, size=(512, 2, 11, 11))]
        got, want = self._pool_only(x)
        assert got.shape == (512, 2 * 5 * 5)
        assert _bits(got) == _bits(want)
        # The corpus does exercise what np.maximum gets wrong.
        assert np.signbit(want[want == 0]).any() and not np.signbit(want[want == 0]).all()

    def test_each_window_position_wins_its_tie(self):
        # One window, all 16 sign patterns of four zeros: the result is
        # the first element's zero.
        patterns = np.array(
            [[(-0.0 if (k >> bit) & 1 else 0.0) for bit in range(4)] for k in range(16)],
            dtype=np.float32,
        )
        got, want = self._pool_only(patterns.reshape(16, 1, 2, 2))
        assert _bits(got) == _bits(want)
        np.testing.assert_array_equal(np.signbit(got[:, 0]), np.signbit(patterns[:, 0]))

    def test_nan_input_takes_the_layer(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 1, 6, 6)).astype(np.float32)
        x[3, 0, 2, 3] = np.nan
        got, want = self._pool_only(x)
        assert np.isnan(want).sum() == 1
        assert _bits(got) == _bits(want)

    def test_other_pool_shapes_take_the_layer(self):
        x = np.random.default_rng(2).standard_normal((8, 2, 9, 9)).astype(np.float32)
        got, want = self._pool_only(x, pool=3)
        assert _bits(got) == _bits(want)


class TestOneForwardServesBoth:
    def test_accuracy_after_loss_on_the_same_theta_runs_no_forward(self, corpus):
        problem = _problem("cnn", corpus)
        theta, other, _ = _thetas(problem, np.float32)
        plan = _plan(problem, theta)
        problem.eval_loss(theta)
        assert plan.forwards == 1
        problem.eval_accuracy(theta.copy())  # equal bits, another buffer
        assert plan.forwards == 1
        problem.eval_accuracy(other)
        assert plan.forwards == 2
        # No memo of losses: the forward always runs.
        problem.eval_loss(theta)
        assert plan.forwards == 3

    def test_theta_equality_is_bitwise(self, corpus):
        problem = _problem("mlp", corpus)
        theta = _thetas(problem, np.float32)[0]
        theta[0] = 0.0
        plan = _plan(problem, theta)
        problem.eval_loss(theta)
        flipped = theta.copy()
        flipped[0] = -0.0
        problem.eval_accuracy(flipped)  # == theta by value, not by bits
        assert plan.forwards == 2

    def test_interleaved_cohort_replicas_all_reuse(self, corpus):
        # run_cohort finalizes every replica after all of them made
        # their last monitor observation.
        problem = _problem("mlp", corpus)
        thetas = _thetas(problem, np.float32)
        plan = _plan(problem, thetas[0])
        for theta in thetas:
            problem.eval_loss(theta)
        for theta in thetas:
            problem.eval_accuracy(theta)
        assert plan.forwards == len(thetas)

    def test_non_finite_theta_is_nan_without_a_forward(self, corpus):
        problem = _problem("mlp", corpus)
        theta = _thetas(problem, np.float32)[0]
        theta[3] = np.inf
        assert np.isnan(problem.eval_loss(theta)) and np.isnan(problem.eval_accuracy(theta))
        assert problem not in inference._PLANS


class TestPlanLivesOutsideTheProblem:
    def test_evaluation_leaves_vars_and_pickle_alone(self, corpus):
        problem = _problem("cnn", corpus)
        theta = _thetas(problem, np.float32)[0]
        names = sorted(vars(problem))
        layer_vars = [sorted(vars(layer)) for layer in problem.network.layers]
        size = len(pickle.dumps(problem))
        problem.eval_loss(theta)
        problem.eval_accuracy(theta)
        assert sorted(vars(problem)) == names
        assert [sorted(vars(layer)) for layer in problem.network.layers] == layer_vars
        assert len(pickle.dumps(problem)) == size

    def test_nothing_is_built_before_the_first_evaluation(self, corpus):
        problem = _problem("cnn", corpus)
        assert problem not in inference._PLANS
        problem.eval_loss(_thetas(problem, np.float32)[0])
        assert problem in inference._PLANS

    def test_problems_sharing_a_network_do_not_share_a_plan(self, corpus):
        net = cnn_mnist()
        one, two = _problem("cnn", corpus, net), _problem("cnn", corpus, net)
        theta = _thetas(one, np.float32)[0]
        one.eval_loss(theta)
        two.eval_loss(theta)
        assert _plan(one, theta) is not _plan(two, theta)
        assert _plan(one, theta).forwards == _plan(two, theta).forwards == 1

    def test_one_plan_per_theta_dtype(self, corpus):
        problem = _problem("mlp", corpus)
        theta = _thetas(problem, np.float32)[0]
        assert _plan(problem, theta) is _plan(problem, theta.copy())
        assert _plan(problem, theta) is not _plan(problem, theta.astype(np.float64))

    def test_replaced_split_rebuilds_the_plan(self, corpus):
        problem = _problem("cnn", corpus)
        theta = _thetas(problem, np.float32)[0]
        before = problem.eval_loss(theta)
        problem.eval_x = problem.eval_x[::-1].copy()
        problem.eval_y = problem.eval_y[::-1].copy()
        want = problem.network.loss(problem.eval_x, problem.eval_y, theta)
        assert problem.eval_loss(theta).hex() == want.hex()
        assert problem.eval_x.shape[0] == N_EVAL and before > 0

    def test_split_of_the_wrong_sample_shape_is_refused(self, corpus):
        problem = _problem("cnn", corpus)
        problem.eval_x = np.zeros((N_EVAL, 1, 30, 30), dtype=np.float32)
        with pytest.raises(ShapeError, match="expects"):
            problem.eval_loss(_thetas(problem, np.float32)[0])

    def test_plan_dies_with_its_problem(self, corpus):
        problem = _problem("mlp", corpus)
        problem.eval_loss(_thetas(problem, np.float32)[0])
        alive = len(inference._PLANS)
        del problem
        gc.collect()
        assert len(inference._PLANS) == alive - 1
