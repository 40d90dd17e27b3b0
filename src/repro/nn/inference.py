"""Held-out evaluation without the training machinery.

The convergence monitor evaluates the *same* held-out split under a new
``theta`` dozens of times per run, and the simulator charges it no
virtual time: every host second it takes is overhead on a sweep. The
training layers are the wrong tool for that job. They im2col an input
that never changes, keep backward caches nobody reads, and pool through
a tile copy + ``argmax`` + ``take_along_axis``.

An :class:`InferencePlan` is what one ``(network, split, theta dtype)``
can prepare once: the split converted to the theta dtype, the first
``Conv2D``'s patch matrix, and scratch buffers the forward pass writes
into. It is a cache of theta-independent work plus scratch, never of
losses: :meth:`InferencePlan.loss` always runs its forward. Every value
it returns is **bitwise identical** to ``Network.loss`` /
``Network.accuracy`` (they feed ``curve_loss``, ``threshold_times`` and
``final_accuracy``, hence every fingerprint); ``tests/nn/test_inference.py``
compares bit patterns.

How the bits are kept:

* ``Conv2D`` and ``Dense`` run the layer's own GEMMs on the same
  operands (``np.matmul(cols, W.T)``, ``np.matmul(x, W)``) with ``out=``
  targets, the equivalence ``tests/nn/test_workspace.py`` pins for
  training. The patch matrix is gathered through the layer's own table
  (:func:`repro.nn.layers.conv2d.patch_gather`), and the conv bias is
  added after the transpose-copy instead of before it: one IEEE addition
  per element either way.
* The layers before the first ``Dense`` (the conv front-end) run over
  the split :data:`FRONT_BLOCK` samples at a time. Everything there is
  per sample: a conv ``matmul`` is one GEMM per sample already, ReLU and
  the pool are elementwise or window-local, so a block computes exactly
  the rows the whole split would. The ``Dense`` tail runs once on the
  whole split, because a GEMM over other row counts may block its
  reduction differently.
* The 2x2 max-pool is a comparison tree, ``right > left ? right : left``
  over column pairs and then over row pairs. Strict ``>`` keeps the
  *first* maximum in window order, which is ``argmax``'s tie rule.
  ``np.maximum`` would be faster and is **not** exact: ``ReLU`` here is
  ``x * (x > 0)``, so every negative pre-activation arrives as ``-0.0``,
  and ``np.maximum`` breaks ``-0.0`` / ``+0.0`` ties differently.
  ``argmax`` ranks NaN above everything and ``>`` does not, so an input
  holding a NaN goes through the layer's own ``forward``.
* Any other pool shape and any layer type the plan does not know
  (Dropout, Softmax, user layers, subclasses of the known ones) also go
  through the layer's own ``forward``.

Memory: a plan retains its buffers only while they total at most
:data:`PLAN_BYTES_CAP`; a larger split (10k real-MNIST images would pin
~250 MB of layer-0 patches) builds patches and activations per call.
Activations ping-pong between two buffers sized for the largest one the
front-end makes of a block or the tail of the split; only the cached
layer-0 patch matrix and the front-end's output grow with the split.

Plans live in a weak-keyed module table (:func:`plan_for`), not on the
problem, the network or the layers: whatever hangs on those objects is
pickled or hoisted into shared memory by ``WorkerPool.broadcast_for``.
"""

from __future__ import annotations

import weakref
from collections import deque

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.layers.conv2d import patch_gather
from repro.nn.loss import softmax_cross_entropy

__all__ = ["InferencePlan", "plan_for"]

#: Most bytes one plan keeps between calls (patches + scratch). A
#: constant on purpose: the 2,048-image CNN split of the default
#: profiles is the largest the repo evaluates and needs 52 MiB, 47.5 of
#: them its layer-0 patch matrix.
PLAN_BYTES_CAP = 128 * 2**20

#: Samples per pass of the conv front-end. Sizes the patch and ping-pong
#: scratch (39 KB per sample on the Table-III CNN) and nothing else: no
#: value depends on it.
FRONT_BLOCK = 64

#: Evaluations whose ``(theta, logits)`` a plan remembers so that
#: ``accuracy`` on the same theta needs no second forward. More than one
#: because the replicas of a lockstep cohort interleave their last
#: monitor observations before any of them is finalized.
KEPT_EVALUATIONS = 8


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two same-dtype 1-D vectors (``==`` would call
    ``-0.0`` and ``+0.0`` equal, and they need not give the same logits)."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), b.view(np.uint8)
    )


class InferencePlan:
    """Forward-only evaluation of ``network`` on the fixed split
    ``(x, y)`` for thetas of one ``dtype`` (see the module docstring).

    ``x`` and ``y`` are treated as constants, as the problem's
    ``identity()`` declares them.
    """

    def __init__(self, network, x: np.ndarray, y: np.ndarray, dtype: np.dtype | type) -> None:
        self.network = network
        self.x = x
        self.y = y
        self.dtype = np.dtype(dtype)
        self.forwards = 0  # forward passes run (tests count them)
        # A layer the plan does not know may be stateful (Dropout draws a
        # mask per forward): then no logits are ever reused.
        self._pure = all(type(layer) in self._STEPS for layer in network.layers)
        if tuple(x.shape[1:]) != network.input_shape:
            # The conv gathers index a flat sample: a wrong shape must not
            # read the wrong pixels quietly.
            raise ShapeError(
                f"split samples have shape {tuple(x.shape[1:])}, "
                f"network {network.name!r} expects {network.input_shape}"
            )
        n = x.shape[0]
        layers, shapes = network.layers, network.layer_shapes
        # The conv front-end: the layers before the first Dense, when a
        # Conv2D is among them (nothing else has scratch worth blocking)
        # and the plan runs every one itself, sample by sample.
        head = next((i for i, layer in enumerate(layers) if type(layer) is Dense), len(layers))
        blockable = any(type(layer) is Conv2D for layer in layers[:head]) and all(
            type(layer) in self._STEPS for layer in layers[:head]
        )
        self._front = head if blockable else 0
        self._gathers = {
            i: patch_gather(in_shape, layer.kernel)
            for i, (layer, (in_shape, _)) in enumerate(zip(layers, shapes))
            if type(layer) is Conv2D
        }
        sizes = [int(np.prod(out_shape)) for _, out_shape in shapes]
        rows = min(n, FRONT_BLOCK) if self._front else n  # what a conv sees at a time
        act_elems = max(
            rows * max(sizes[: self._front], default=0), n * max(sizes[self._front :], default=0)
        )
        patch_elems = n * self._gathers[0].size if 0 in self._gathers else 0
        cols_elems = rows * max((g.size for i, g in self._gathers.items() if i > 0), default=0)
        feature_elems = n * sizes[self._front - 1] if self._front else 0
        converted = np.asarray(x, dtype=self.dtype)  # Network.forward's conversion
        x_bytes = 0 if converted is x else converted.nbytes
        total = (
            patch_elems + cols_elems + 2 * act_elems + feature_elems
        ) * self.dtype.itemsize + x_bytes
        retain = total <= PLAN_BYTES_CAP
        #: Bytes this plan keeps between calls (tests pin them).
        self.retained_bytes = total if retain else 0
        self._x = converted if retain else None
        self._patches = (
            np.take(converted.reshape(n, -1), self._gathers[0], axis=1)
            if retain and patch_elems
            else None
        )
        self._cols = np.empty(cols_elems if retain else 0, dtype=self.dtype)
        self._flat = [np.empty(act_elems if retain else 0, dtype=self.dtype) for _ in range(2)]
        self._features = np.empty(feature_elems if retain else 0, dtype=self.dtype)
        self._recent: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=KEPT_EVALUATIONS)

    # -- scratch -------------------------------------------------------
    def _scratch(self, held: int | None, shape: tuple[int, ...]) -> tuple[np.ndarray, int | None]:
        """A writable ``shape`` array that does not overlap scratch
        buffer ``held``, and the index of the buffer it lives in (None
        when the plan retains nothing and the array is fresh)."""
        size = int(np.prod(shape))
        index = 1 if held == 0 else 0
        flat = self._flat[index]
        if size <= flat.size:
            return flat[:size].reshape(shape), index
        return np.empty(shape, dtype=self.dtype), None

    # -- layers --------------------------------------------------------
    def _conv(self, i, layer, cur, held, params):
        W, b = params
        n = cur.shape[0]
        f, oh, ow = layer._out_shape
        p = oh * ow
        if i == 0 and self._patches is not None:
            cols = cur  # logits() feeds layer 0 rows of the cached patch matrix
        else:
            gather = self._gathers[i]
            if n * gather.size <= self._cols.size:
                cols = self._cols[: n * gather.size].reshape(n, gather.size)
            else:
                cols = np.empty((n, gather.size), dtype=self.dtype)
            # mode="clip" only skips take's buffered bounds pass; the
            # offsets are in range by construction.
            np.take(cur.reshape(n, -1), gather, axis=1, out=cols, mode="clip")
        mm, index = self._scratch(held, (n, p, f))
        np.matmul(cols.reshape(n, p, -1), W.T, out=mm)
        # cur is consumed: its buffer takes the transposed output. The
        # layer adds b before transposing; each element is the same one
        # addition either way, and after it the inner loop is p long, not f.
        out, held = self._scratch(index, (n, f, p))
        np.copyto(out, mm.transpose(0, 2, 1))
        out += b[:, None]
        return out.reshape(n, f, oh, ow), held

    def _dense(self, i, layer, cur, held, params):
        W, b = params
        out, held = self._scratch(held, (cur.shape[0], layer.units))
        np.matmul(cur, W, out=out)
        out += b
        return out, held

    def _relu(self, i, layer, cur, held, params):
        out, held = self._scratch(held, cur.shape)
        np.multiply(cur, cur > 0, out=out)
        return out, held

    def _pool(self, i, layer, cur, held, params):
        # max() propagates NaN, the one value `argmax` and `>` rank
        # differently (+-inf tie and order like any other number).
        if layer.pool != (2, 2) or (cur.size and np.isnan(cur.max())):
            return self._layer_forward(i, layer, cur, held, params)
        oh, ow = cur.shape[2] // 2, cur.shape[3] // 2
        left = cur[:, :, : 2 * oh, 0 : 2 * ow : 2]
        right = cur[:, :, : 2 * oh, 1 : 2 * ow : 2]
        rows = np.where(right > left, right, left)
        top, bottom = rows[:, :, 0::2], rows[:, :, 1::2]
        return np.where(bottom > top, bottom, top), None

    def _flatten(self, i, layer, cur, held, params):
        return cur.reshape(cur.shape[0], -1), held

    def _layer_forward(self, i, layer, cur, held, params):
        out, _ = layer.forward(cur, params)
        return out, held  # out may be (a view of) cur

    _STEPS = {
        Conv2D: _conv, Dense: _dense, ReLU: _relu, MaxPool2D: _pool, Flatten: _flatten,
    }

    # -- evaluation ----------------------------------------------------
    def _run(self, start: int, stop: int, cur: np.ndarray, params: list) -> np.ndarray:
        """Layers ``start..stop-1`` applied to ``cur``."""
        layers = self.network.layers
        held = None
        for i in range(start, stop):
            step = self._STEPS.get(type(layers[i]), InferencePlan._layer_forward)
            cur, held = step(self, i, layers[i], cur, held, params[i])
        return cur

    def logits(self, theta: np.ndarray) -> np.ndarray:
        """``network.forward(x, theta)``; the result may live in plan
        scratch and is valid until the next call."""
        network = self.network
        theta = network._check_theta(theta)
        self.forwards += 1
        params = network._all_param_views(theta)
        cur = self._x if self._x is not None else np.asarray(self.x, dtype=theta.dtype)
        if self._patches is not None:
            cur = self._patches  # layer 0 is a Conv2D and reads its patches
        front = self._front
        if front:
            n = cur.shape[0]
            out_shape = network.layer_shapes[front - 1][1]
            width = int(np.prod(out_shape))
            features = self._features
            if features.size != n * width:  # nothing retained
                features = np.empty(n * width, dtype=self.dtype)
            features = features.reshape(n, width)
            for lo in range(0, n, FRONT_BLOCK):
                block = self._run(0, front, cur[lo : lo + FRONT_BLOCK], params)
                features[lo : lo + FRONT_BLOCK] = block.reshape(-1, width)
            cur = features.reshape((n,) + out_shape)
        return self._run(front, len(network.layers), cur, params)

    def loss(self, theta: np.ndarray) -> float:
        """``network.loss(x, y, theta)``. Always runs the forward."""
        logits = self.logits(theta)
        if self._pure:
            self._recent.append((np.array(theta, copy=True), logits.copy()))
        return softmax_cross_entropy(logits, self.y)[0]

    def accuracy(self, theta: np.ndarray) -> float:
        """``network.accuracy(x, y, theta)``; reuses the logits of a
        recent :meth:`loss` call on a bitwise-equal theta."""
        y = np.asarray(self.y)
        if y.size == 0:
            return float("nan")
        theta = np.asarray(theta)
        for seen, kept in reversed(self._recent):
            if _same_bits(theta, seen):
                logits = kept
                break
        else:
            logits = self.logits(theta)
        return float(np.mean(np.argmax(logits, axis=-1) == y))


#: owner -> {theta dtype -> plan}. Weak keys: a plan dies with its owner.
_PLANS: "weakref.WeakKeyDictionary[object, dict[np.dtype, InferencePlan]]" = (
    weakref.WeakKeyDictionary()
)


def plan_for(owner, network, x: np.ndarray, y: np.ndarray, dtype) -> InferencePlan:
    """The plan of ``owner`` (a problem) for thetas of ``dtype``, built
    on first use and rebuilt if the owner's network or split was
    replaced. Two owners never share a plan, even over one network."""
    plans = _PLANS.setdefault(owner, {})
    dtype = np.dtype(dtype)
    plan = plans.get(dtype)
    if plan is None or plan.network is not network or plan.x is not x or plan.y is not y:
        plan = plans[dtype] = InferencePlan(network, x, y, dtype)
    return plan
