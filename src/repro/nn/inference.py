"""Held-out evaluation without the training machinery.

The convergence monitor evaluates the *same* held-out split under a new
``theta`` dozens of times per run, and the simulator charges it no
virtual time: every host second it takes is overhead on a sweep. The
training layers are the wrong tool for that job. They im2col an input
that never changes, keep backward caches nobody reads, and pool the
ReLU's output through a tile copy + ``argmax`` + ``take_along_axis``.

An :class:`InferencePlan` is what one ``(network, split, theta dtype)``
can prepare once: the split converted to the theta dtype, the first
``Conv2D``'s patch matrix, and scratch buffers the forward pass writes
into. It also remembers its last :data:`KEPT_EVALUATIONS` evaluations
(theta's bits, the logits and, once asked for, the loss), and both
:meth:`InferencePlan.loss` and :meth:`InferencePlan.accuracy` read them:
every run of an eta column starts from the seed's theta_0, and the
accuracy ``_finalize_run`` takes is on the theta the monitor observed
last, so one forward per distinct theta is all a pass needs. Every value
the plan returns is **bitwise identical** to ``Network.loss`` /
``Network.accuracy`` (they feed ``curve_loss``, ``threshold_times`` and
``final_accuracy``, hence every fingerprint); ``tests/nn/test_inference.py``
compares bit patterns.

How the bits are kept:

* The memo is exact because a value is a function of theta's *bits*:
  the split is constant, and a pure network's forward is deterministic.
  A kept theta matches only on every bit (``-0.0`` and ``+0.0`` differ);
  every ``stride``-th element (:data:`PROBE_ELEMENTS` of them) is
  compared first, so a miss against d = 134,794 costs ~64 compares per
  kept entry. A hit moves the entry to the back, so theta_0 outlives
  the thetas of the run it started. A network holding a layer outside
  :attr:`InferencePlan._PURE` (a user layer may keep state across
  forwards) memoises nothing.
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
* A ``ReLU`` that a ``MaxPool2D`` follows runs with it as one step on
  the pre-activation ``z``. ``M``, each window's maximum, is
  ``np.maximum`` over the ``ph`` row slices of ``z`` (rows ``ow * pw``
  long, contiguous), then over the ``pw`` column slices of that, and
  the output is ``where(M > 0, M, z_tl * 0)``, with ``z_tl`` the
  window's top-left element. That is the layers' pool (``argmax``, first
  maximum wins) over the ReLU's ``x * (x > 0)``, bit for bit:

  - ``M > 0``: ``argmax`` picks a positive maximum, and equal positive
    values have equal bits.
  - ``M <= 0``: every ReLU output in the window is ``+-0``, so ``argmax``
    returns index 0 and the pool gives ``relu(z_tl) = z_tl * 0``.
  - So ``np.maximum``'s ``-0.0`` / ``+0.0`` tie rule, which makes it
    inexact on the ReLU's output, never reaches the result, and neither
    does the order in which the maxima are taken.

  The output is computed as ``maximum(M, -0.0)``, with ``z_tl * 0``
  written only where ``M`` is ``+-0``: where ``M < 0``, ``z_tl <= M`` is
  negative too and ``z_tl * 0`` is ``-0.0``, so the strided top-left
  elements are read only for the windows whose maximum is zero.

  A NaN or ``-inf`` anywhere in ``z`` sends the block through both
  layers' own ``forward`` (``argmax`` ranks NaN first, and
  ``relu(-inf) = -inf * 0`` is NaN); ``z.min()`` propagates NaN, so one
  reduction checks for both.
* When a ``Conv2D`` feeds that step, its bias ``b`` is added after the
  max: to each window's maximum of the product ``mm`` and, where that
  sum is zero, to its top-left element, not to the whole map.
  ``x -> fl(x + b)`` is non-decreasing, so ``max_i fl(mm_i + b) =
  fl(max_i mm_i + b)``, and ``z_tl * 0`` is computed from the exact
  ``fl(mm_tl + b)``. The guard
  becomes ``fl(min(mm) + min(b)) > -inf``: by the same monotonicity it
  fails whenever some ``fl(mm_i + b_j)`` is ``-inf`` or NaN (that needs
  a NaN, or a ``-inf`` in ``mm`` or ``b``, or an overflow only the
  addition makes). A failed guard adds ``b`` to the whole map and takes
  the step above, guard included.
* A ``MaxPool2D`` with no ``ReLU`` before it, and any layer type the plan
  does not know (user layers, subclasses of the known ones), go through
  the layer's own ``forward``. Whether a layer is
  deterministic (:attr:`InferencePlan._PURE`: its logits may be reused
  and the front-end blocked) does not depend on the plan having a step
  for it.

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

#: Evaluations a plan remembers (theta's bits, its logits and, once
#: asked for, its loss), so that a theta seen before costs no forward.
#: More than one because the replicas of a lockstep cohort interleave
#: their last monitor observations before any of them is finalized, and
#: because theta_0 comes back at the start of every run of a column.
KEPT_EVALUATIONS = 8

#: Elements of theta compared, at an even stride, before the whole
#: vector: a theta that differs from a kept one almost always differs
#: there, so a miss costs ~64 compares per kept entry, not d.
PROBE_ELEMENTS = 64


def _same_bits(a: np.ndarray, b: np.ndarray, stride: int) -> bool:
    """Bitwise equality of two same-dtype vectors (``==`` would call
    ``-0.0`` and ``+0.0`` equal, and they need not give the same logits).
    Every ``stride``-th element is compared first, the rest only if
    those agree."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    unsigned = f"u{a.dtype.itemsize}"
    a, b = a.view(unsigned), b.view(unsigned)
    return np.array_equal(a[::stride], b[::stride]) and np.array_equal(a, b)


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
        # A layer outside _PURE may be stateful (a user layer may change
        # between forwards): then nothing is ever reused.
        self._pure = all(type(layer) in self._PURE for layer in network.layers)
        #: ``[theta, logits, loss or None]`` of recent evaluations, the
        #: most recently used last.
        self._kept: deque[list] = deque(maxlen=KEPT_EVALUATIONS)
        self._stride = max(1, network.n_params // PROBE_ELEMENTS)
        if tuple(x.shape[1:]) != network.input_shape:
            # The conv gathers index a flat sample: a wrong shape must not
            # read the wrong pixels quietly.
            raise ShapeError(
                f"split samples have shape {tuple(x.shape[1:])}, "
                f"network {network.name!r} expects {network.input_shape}"
            )
        n = x.shape[0]
        layers, shapes = network.layers, network.layer_shapes
        #: Indices of the ReLUs a MaxPool2D follows: one step runs both.
        self._relu_pools = {
            i for i in range(len(layers) - 1)
            if type(layers[i]) is ReLU and type(layers[i + 1]) is MaxPool2D
        }
        #: Indices of the Conv2Ds such a step follows: the step adds
        #: their bias after the max.
        self._conv_pools = {
            i - 1 for i in self._relu_pools if i and type(layers[i - 1]) is Conv2D
        }
        # The conv front-end: the layers before the first Dense, when a
        # Conv2D is among them (nothing else has scratch worth blocking)
        # and every one of them is pure, hence works sample by sample.
        head = next((i for i, layer in enumerate(layers) if type(layer) is Dense), len(layers))
        blockable = any(type(layer) is Conv2D for layer in layers[:head]) and all(
            type(layer) in self._PURE for layer in layers[:head]
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
    def _conv(self, i, layer, cur, held, params, bias=True):
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
        if bias:
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

    def _relu_pool(self, relu, pool, z, held, b=None):
        """``relu`` then ``pool`` as one step on the pre-activation ``z``,
        or on ``z + b`` (per channel) when the conv before left its bias
        to this step (the rules and why they are exact: the module
        docstring)."""
        if b is not None and z.size:
            with np.errstate(over="ignore", invalid="ignore"):
                low = z.min() + b.min()
            if not low > -np.inf:  # maybe a NaN or -inf in z + b: add b now
                z += b[:, None, None]
                b = None
        if b is None and z.size and not z.min() > -np.inf:  # a NaN or -inf in z
            out, _ = relu.forward(z, [])
            return pool.forward(out, [])[0], None
        ph, pw = pool.pool
        oh, ow = z.shape[2] // ph, z.shape[3] // pw
        # Row maxima first (rows ow * pw long and contiguous), then the
        # maxima of their pw column slices.
        rows = [z[:, :, a : oh * ph : ph, : ow * pw] for a in range(ph)]
        wide, _ = self._scratch(held, rows[0].shape)
        np.maximum(rows[0], rows[-1], out=wide)  # one row: max(r, r) is r
        for row in rows[1:-1]:
            np.maximum(wide, row, out=wide)
        columns = [wide[..., c::pw] for c in range(pw)]
        peak = np.maximum(columns[0], columns[-1])
        for column in columns[1:-1]:
            np.maximum(peak, column, out=peak)
        if b is not None:
            peak += b[:, None, None]
        # Where the window's maximum is negative, so is z_tl, and
        # z_tl * 0 is -0.0. Only a maximum of +-0 needs z_tl itself.
        ties = peak == 0
        np.maximum(peak, -0.0, out=peak)
        if ties.any():
            top_left = z[:, :, : oh * ph : ph, : ow * pw : pw][ties]
            if b is not None:
                top_left += np.broadcast_to(b[:, None, None], peak.shape)[ties]
            peak[ties] = top_left * 0
        return peak, None

    def _flatten(self, i, layer, cur, held, params):
        return cur.reshape(cur.shape[0], -1), held

    def _layer_forward(self, i, layer, cur, held, params):
        out, _ = layer.forward(cur, params)
        return out, held  # out may be (a view of) cur

    _STEPS = {Conv2D: _conv, Dense: _dense, ReLU: _relu, Flatten: _flatten}

    #: Layer types whose forward is a deterministic function of each
    #: sample and theta, whether or not a step of their own runs them.
    _PURE = frozenset({Conv2D, Dense, ReLU, MaxPool2D, Flatten})

    # -- evaluation ----------------------------------------------------
    def _run(self, start: int, stop: int, cur: np.ndarray, params: list) -> np.ndarray:
        """Layers ``start..stop-1`` applied to ``cur``."""
        layers = self.network.layers
        held = None
        i = start
        while i < stop:
            if i in self._conv_pools:  # conv -> ReLU -> pool, the bias after the max
                cur, held = self._conv(i, layers[i], cur, held, params[i], bias=False)
                cur, held = self._relu_pool(layers[i + 1], layers[i + 2], cur, held, params[i][1])
                i += 3
                continue
            if i in self._relu_pools:  # its pool is in the run too: a Dense ends the front
                cur, held = self._relu_pool(layers[i], layers[i + 1], cur, held)
                i += 2
                continue
            step = self._STEPS.get(type(layers[i]), InferencePlan._layer_forward)
            cur, held = step(self, i, layers[i], cur, held, params[i])
            i += 1
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

    def _evaluation(self, theta: np.ndarray) -> list:
        """``[theta, logits, loss or None]`` for ``theta``: the kept
        entry of its bit pattern, moved to the back, or a new one from
        one forward (kept only when the network is pure)."""
        theta = np.asarray(theta)
        kept = self._kept
        for k in range(len(kept) - 1, -1, -1):
            entry = kept[k]
            if _same_bits(theta, entry[0], self._stride):
                del kept[k]
                kept.append(entry)
                return entry
        logits = self.logits(theta)
        if not self._pure:
            return [theta, logits, None]
        entry = [np.array(theta, copy=True), logits.copy(), None]
        kept.append(entry)
        return entry

    def loss(self, theta: np.ndarray) -> float:
        """``network.loss(x, y, theta)``; no forward for a theta with
        the bits of a kept evaluation."""
        entry = self._evaluation(theta)
        if entry[2] is None:
            entry[2] = softmax_cross_entropy(entry[1], self.y)[0]
        return entry[2]

    def accuracy(self, theta: np.ndarray) -> float:
        """``network.accuracy(x, y, theta)``; no forward for a theta
        with the bits of a kept evaluation."""
        y = np.asarray(self.y)
        if y.size == 0:
            return float("nan")
        logits = self._evaluation(theta)[1]
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
