"""The training kernel: one gradient step per request, for groups of any size.

Every DL gradient the simulator computes runs here. A serial run's
worker hands each request to a kernel of one
(:meth:`repro.core.problem.DLGradTask.run`); when
:class:`repro.sim.replica.LockstepCohort` advances K replica simulations
in lockstep, every round harvests the pending
:class:`~repro.sim.grad.GradCompute` requests whose tasks share a
``stack_key`` — same problem, same batch size, same dtype, and (because
replicas differ only in seed or step size) the same network — and one
:class:`ReplicaKernel` executes the group. A group of one is the same
code at ``k = 1``.

Bitwise identity
----------------
The reference is the allocating ``Network.loss_and_grad`` (the layers'
own ``forward`` / ``backward``); ``tests/nn/test_kernel_model.py`` holds
the kernel's gradient **bitwise identical** to it per request on
generated networks. The kernel runs each request's whole step on its
own ``(N, ...)`` buffers, so every op is the reference's per-request
call on operands of the reference's shape and strides, into
preallocated ``out=`` targets:

* **Requests run one at a time, in shares on idle cores.** ``execute``
  draws every request's batch indices on the calling thread, in request
  order (the draws a serial run would make), then splits the K requests
  into ``min(lanes, K)`` contiguous shares and hands them to
  :func:`repro.utils.lanes.each` once. Share ``j`` runs its requests one
  after another in lane ``j``'s region, each the whole step (batch
  gather, forward, softmax-CE, backward); share 0 runs on the calling
  thread, the others on whichever thread claims them first, and the step
  returns after one join. A request writes only its lane's region and
  its own gradient views, so the bits depend neither on the width (1
  wherever BLAS is not pinned to one thread, in a pool worker, and below
  ``LANE_MIN_MACS`` multiply-adds a request), nor on how the requests
  are split, nor on which thread ran a share. Profiler spans cover
  share 0.
* **Conv2D gathers its im2col in one call.** One ``np.take`` through
  the layer's own gather table (:func:`repro.nn.layers.conv2d.patch_gather`,
  the repo's one im2col) fills a contiguous ``(N, OH*OW, C*kh*kw)``
  patch slab, exactly the reference ``cols`` layout; one
  transpose-``copyto`` produces the feature maps, and the bias is added
  after it, where the inner loop is ``OH*OW`` long instead of ``F`` (one
  IEEE addition per element either way). Backward mirrors it: the
  reference's ``einsum`` (its contraction-path cache is shared with the
  layer; paths depend on shapes only), ``matmul`` and multi-axis bias
  sum, then a zero-fill + slice-add scatter for the input gradient, over
  flattened maps through one kernel row of patch gradients at a time,
  copied once into rows zero-padded to the input width (the pad adds
  +0.0 to sums that are never -0.0).
* **ReLU runs in place.** It multiplies the mask into the conduit it
  consumes: no backward step reads a layer's output (dense keeps its
  input, conv its patches, pool its window index, ReLU its mask), so a
  ReLU costs one mask slab and no output slab.
* **MaxPool2D selects bits.** There is one path for any ``(PH, PW)``,
  over the ``PH*PW`` strided window views ``x[..., a::PH, b::PW]``
  (cropped to ``OH*PH`` x ``OW*PW``), each copied once into a contiguous
  scratch slab. The forward keeps a running first maximum: window ``j``
  replaces it where ``w > best``, or where ``w`` is NaN and ``best`` is
  not, as ``bits(best) ^= (bits(best) ^ bits(w)) * upd`` on the unsigned
  view of the kernel dtype, and ``idx = maximum(idx, upd * j)``. That is
  bit for bit the reference layer's index of the first maximum (equal
  values and -0.0 / +0.0 keep the earlier element, the first NaN wins)
  and its gather of that element, because the value moves as raw bits
  and nothing is summed. The backward writes ``bits(g) * (idx == j)``
  straight into each strided window of the input gradient, which is
  the reference's scatter into zeros and its un-tiling, and zero-fills
  only the cropped border.
* **The first layer's input gradient is skipped.** The reference backward
  computes layer 0's ``d loss / d input`` and discards it
  (``Network.loss_and_grad`` never uses the final conduit); for the
  paper's CNN this kills conv 0's ``gcols`` matmul and scatter, the
  most expensive backward ops in the step, and changes no result.
* **The loss scalar is skipped.** Worker bodies discard the return of
  their gradient function; the kernel computes only the logits
  gradient. (The reference loss reads the logits without writing
  them, so skipping it is bit-neutral.)

Memory
------
Every slab is planned for one request and placed by liveness in one
byte buffer per lane (its *region*), each slab a view of its own dtype
at a 64-byte-aligned offset. What the backward pass reads lies
disjoint at the front: conv patches, ReLU masks, pool window indices,
every dense layer's input and output (the input batch too, when layer 0
is dense, and a conv's or a pool's maps that reach a dense layer
through ReLU / flatten). Behind it, the *forward-only* slabs (the input
batch before a spatial layer, conv GEMM outputs, maps that feed a pool
or a conv, the pool's window and mask scratch) and the *backward-only*
ones (conv patch gradients, the pool's mask, input gradients, the
col2im rows) are each laid out from the same offset: the forward layout
is dead before the backward pass writes its first slab, so this is pure
buffer reuse. Forward-only slabs are disjoint; two backward-only slabs
share bytes when no backward step uses both (a layer's scratch lives
for its own step, its input gradient until the layer below consumes
it). A lane's region is allocated the first time a step uses that lane
(a kernel of one has one), so a kernel's bytes depend on the network,
the batch and the lanes, never on how many requests a group holds.
Kernel regions are host-side execution scratch, deliberately outside
every replica's ``MemoryAccountant``: accounting them would perturb
each replica's ``pool_*`` metrics away from its serial run.

``build`` returns ``None`` whenever any precondition fails
(:meth:`ReplicaKernel.reject_reason`: unsupported layer kind, non-dense
head, dtype mismatch between the corpus and the parameters); every
gradient of that network then runs the reference path, and a cohort
emits one ``kernel_fallback`` probe event per request of a group it
could have run in the kernel, so silent fallbacks are observable in
``metrics["kernel_fallbacks"]``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn.layers.conv2d import patch_gather, weight_grad_path
from repro.observe import profiler as _profiler
from repro.utils import lanes as _lanes

__all__ = ["ReplicaKernel"]

#: Layer kinds the kernel runs. Anything else (e.g. a user layer with a
#: stateful forward, whose state is order-sensitive) makes ``build``
#: decline the whole network, which then runs the reference path (with
#: ``kernel_fallback`` events where a cohort would have used the kernel).
_SUPPORTED_KINDS = frozenset({"dense", "relu", "flatten", "conv2d", "maxpool2d"})


#: Byte alignment of each slab inside a region.
_SCRATCH_ALIGN = 64

#: Forward multiply-adds per request (:func:`_request_macs`) from which
#: a step splits its requests into shares for the helper lanes
#: (:mod:`repro.utils.lanes`). Handing shares to a helper and joining
#: them costs ~45 us on the 2-vCPU sizing host, once per step; see
#: ``docs/simulator.md`` for the step timings the floor sits between.
LANE_MIN_MACS = 1 << 21


def _request_macs(layers, shapes, batch: int) -> int:
    """Forward GEMM multiply-adds of one request: ``batch * inputs *
    units`` per dense layer, ``batch * OH*OW * C*kh*kw * F`` per conv."""
    macs = 0
    for layer, (layer_in, layer_out) in zip(layers, shapes):
        if layer.kind == "dense":
            macs += layer_in[0] * layer.units
        elif layer.kind == "conv2d":
            kh, kw = layer.kernel
            macs += layer_out[0] * layer_out[1] * layer_out[2] * layer_in[0] * kh * kw
    return batch * macs


def _backward_reads(layers, i: int) -> bool:
    """Whether the backward pass reads the conduit layer ``i`` writes
    (``i = -1``: the input batch). Only a dense layer reads its input
    back (conv keeps its patches, pool its window index, ReLU its
    mask), and ReLU and flatten pass a conduit on in place, so the
    answer is whether the next other layer is dense."""
    for layer in layers[i + 1 :]:
        if layer.kind not in ("relu", "flatten"):
            return layer.kind == "dense"
    return True  # the last layer is dense: its output is the logits


def _consumer(layers, i: int) -> int:
    """The layer whose backward step reads the input gradient layer
    ``i`` writes: the next layer below ``i`` other than ReLU and
    flatten (which pass the conduit on in place), or 0."""
    for j in range(i - 1, -1, -1):
        if layers[j].kind not in ("relu", "flatten"):
            return j
    return 0


class _Slab:
    """A planned buffer of one request: its shape and dtype, the layers
    whose backward steps use it (``live``, a backward-only slab's span;
    None: the whole pass), and its byte offset in a lane's region."""

    __slots__ = ("shape", "dtype", "nbytes", "live", "offset")

    def __init__(self, shape: tuple, dtype: np.dtype, live: tuple | None = None) -> None:
        self.shape = shape
        self.dtype = dtype
        self.nbytes = dtype.itemsize
        for dim in shape:
            self.nbytes *= int(dim)
        self.live = live
        self.offset = 0

    def meets(self, other: "_Slab") -> bool:
        """Whether the two slabs can hold live data at the same time."""
        if self.live is None or other.live is None:
            return True
        return self.live[0] <= other.live[1] and other.live[0] <= self.live[1]

    @staticmethod
    def lay_out(slabs: list, base: int = 0) -> int:
        """Give each slab the lowest ``_SCRATCH_ALIGN``-aligned offset
        from ``base`` at which it overlaps no earlier slab it
        :meth:`meets`; return the end of the layout. Slabs that all meet
        (the kept ones, the forward-only ones) land back to back in
        planning order."""
        placed: list = []
        end = base
        for slab in slabs:
            need = -(-slab.nbytes // _SCRATCH_ALIGN) * _SCRATCH_ALIGN
            offset = base
            taken = sorted((o.offset, o.offset + size) for o, size in placed if o.meets(slab))
            for start, stop in taken:
                if offset + need <= start:
                    break
                offset = max(offset, stop)
            slab.offset = offset
            placed.append((slab, need))
            end = max(end, offset + need)
        return end

    @classmethod
    def resolve_all(cls, item, region: np.ndarray):
        """``item`` with every planned slab in it (nested tuples
        included) replaced by its view in ``region``."""
        if isinstance(item, cls):
            at = slice(item.offset, item.offset + item.nbytes)
            return region[at].view(item.dtype).reshape(item.shape)
        if isinstance(item, tuple):
            return tuple(cls.resolve_all(part, region) for part in item)
        return item


class _Lane:
    """One lane's region, and every buffer of a request viewed in it."""

    __slots__ = ("region", "steps", "x", "y", "rowstat")

    def __init__(self, kernel: "ReplicaKernel") -> None:
        self.region = np.empty(kernel._region_bytes, dtype=np.uint8)
        resolve = partial(_Slab.resolve_all, region=self.region)
        self.steps = [resolve(step) for step in kernel._steps]
        self.x = resolve(kernel._x)
        self.y = resolve(kernel._y)
        self.rowstat = resolve(kernel._rowstat)


class ReplicaKernel:
    """Forward/backward executor for one ``stack_key``.

    One kernel instance serves every task in a cohort with the same key
    (or the one task that owns a kernel of one); it holds only
    per-problem state (corpus references, the network, and one region
    per lane it has used), never per-task state: the slot views of each
    request's ``theta`` / ``out`` come from its task's
    :class:`~repro.nn.workspace.StepWorkspace` memo.
    """

    @classmethod
    def reject_reason(cls, task) -> str | None:
        """Why this task's network cannot run in the kernel, or None.

        The returned string feeds the ``kernel_fallback`` event's
        ``kind`` field: ``"dtype"`` for a corpus/parameter dtype
        mismatch, the offending layer kind for an unsupported layer,
        ``"head:<kind>"`` for a non-dense logits head.
        """
        problem = task.problem
        if np.dtype(problem.train_x.dtype) != task.workspace.dtype:
            return "dtype"  # the reference path convert-copies the batch
        kinds = [layer.kind for layer in task.network.layers]
        for kind in kinds:
            if kind not in _SUPPORTED_KINDS:
                return kind
        if kinds[-1] != "dense":
            return f"head:{kinds[-1]}"  # softmax-CE fusion needs dense logits
        return None

    @classmethod
    def build(cls, task) -> "ReplicaKernel | None":
        """A kernel for groups of any size on ``task``'s stack key, or
        None if :meth:`reject_reason` declines."""
        if cls.reject_reason(task) is not None:
            return None
        return cls(task)

    def __init__(self, task) -> None:
        problem = task.problem
        network = task.network
        self.network = network
        self.train_x = problem.train_x
        self.train_y = problem.train_y
        self.batch = task.batcher.batch_size
        self.dtype = task.workspace.dtype
        # The unsigned integer type of the same width: the pool moves
        # values as these bits.
        self._bits = np.dtype(f"u{self.dtype.itemsize}")
        n = self.batch
        layers = network.layers
        shapes = network.layer_shapes
        # The most lanes a step runs on.
        wide = _request_macs(layers, shapes, n) >= LANE_MIN_MACS
        self.lanes = _lanes.width() if wide else 1
        # Every slab by liveness, placed once the plan is complete.
        self._planned: dict[str, list[_Slab]] = {"keep": [], "forward": [], "backward": []}
        in_shape = self.train_x.shape[1:]
        # Batch gather: one take() fills a request's batch.
        x = self._slab((n,) + in_shape, "keep" if _backward_reads(layers, -1) else "forward")
        y = self._slab((n,), "keep", self.train_y.dtype)
        self._rows = np.arange(n)
        # Row statistic for the softmax (max, then denominator).
        rowstat = self._slab((n, 1), "keep")

        # --- plan: one step per layer with its buffers. Every step
        # tuple ends with its profiler span name (constant strings: the
        # per-kind time split costs nothing when no profiler is active).
        steps: list[tuple] = []
        for i, layer in enumerate(layers):
            layer_in, layer_out = shapes[i]
            kind = layer.kind
            if kind == "dense":
                out2 = self._slab((n, layer.units), "keep")
                # Layer 0's input gradient is computed-and-discarded on
                # the reference path; the kernel skips it outright.
                gin2 = None if i == 0 else self._slab((n, layer_in[0]), "keep")
                steps.append(("dense", i, out2, gin2, "kernel.dense"))
            elif kind == "relu":
                # dtype (not bool) masks: np.greater writes exact
                # 1.0/0.0, and x * 1.0f == x, x * 0.0f == ±0.0 —
                # bit-for-bit what the bool mask's promotion gives —
                # while skipping the bool→float convert per multiply.
                mask = self._slab((n,) + layer_in, "keep")
                steps.append(("relu", i, mask, "kernel.relu"))
            elif kind == "flatten":
                steps.append(("flatten", i, layer_in, "kernel.flatten"))
            elif kind == "conv2d":
                c, h, w = layer_in
                f, oh, ow = layer_out
                kh, kw = layer.kernel
                p, ckk = oh * ow, c * kh * kw
                # The im2col slab, contiguous with exactly the reference
                # ``cols`` layout, and its companions.
                cols3 = self._slab((n, p, ckk), "keep")
                mm3 = self._slab((n, p, f), "forward")
                out4 = self._slab(
                    (n, f, oh, ow), "keep" if _backward_reads(layers, i) else "forward"
                )
                if i == 0:
                    gcols3 = rows5 = gx4 = None  # input gradient skipped
                else:
                    gcols3 = self._slab((n, p, ckk), "backward", live=(i, i))
                    # One kernel row's patch gradients, channel-major, each
                    # output row padded to the input width W with zeros.
                    rows5 = self._slab((n, kw, c, oh, w), "backward", live=(i, i))
                    gx4 = self._slab((n, c, h, w), "backward", live=(_consumer(layers, i), i))
                gather = patch_gather((c, h, w), (kh, kw))
                bufs = (cols3, mm3, out4, gcols3, rows5, gx4, gather,
                        (c, h, w, f, oh, ow, kh, kw))
                steps.append(("conv2d", i, bufs, "kernel.conv2d"))
            else:  # maxpool2d: reject_reason admits no other kind
                c, h, w = layer_in
                _, oh, ow = layer_out
                ph, pw = layer.pool
                full = (n, c, oh, ow)
                best4 = self._slab(full, "keep" if _backward_reads(layers, i) else "forward")
                # The window index, in the narrowest unsigned type that
                # holds PH*PW - 1, is all the backward pass reads.
                idx4 = self._slab(full, "keep", np.min_scalar_type(ph * pw - 1))
                # Forward scratch: one window's bits, the update mask, a
                # comparison, and the mask times the window number.
                win4 = self._slab(full, "forward", self._bits)
                upd4 = self._slab(full, "forward", np.bool_)
                le4 = self._slab(full, "forward", np.bool_)
                jdx4 = self._slab(full, "forward", idx4.dtype)
                if i == 0:
                    eq4 = gx4 = None  # input gradient skipped
                else:
                    eq4 = self._slab(full, "backward", np.bool_, live=(i, i))
                    gx4 = self._slab((n, c, h, w), "backward", live=(_consumer(layers, i), i))
                bufs = (best4, idx4, win4, upd4, le4, jdx4, eq4, gx4, (oh, ow, ph, pw))
                steps.append(("maxpool2d", i, bufs, "kernel.maxpool2d"))
        self._region_bytes = self._place()
        self._x, self._y, self._rowstat = x, y, rowstat
        self._steps = steps
        # One region per lane a step has used, built on first use.
        self._lane_views: list[_Lane] = []

    # ------------------------------------------------------------------
    def _slab(self, shape: tuple, phase: str, dtype=None, live=None) -> "_Slab":
        """Plan a slab of ``shape`` (of the kernel's dtype unless given):
        ``"keep"`` for what the backward pass reads, ``"forward"`` /
        ``"backward"`` for scratch of one pass (a backward-only slab
        with the span of layers whose backward steps use it).
        :meth:`_place` gives it its offset."""
        slab = _Slab(shape, np.dtype(dtype or self.dtype), live)
        self._planned[phase].append(slab)
        return slab

    def _place(self) -> int:
        """Give every planned slab its offset in a region and return the
        region's size. The kept slabs lie disjoint from byte 0; behind
        them the forward-only slabs are laid out disjointly, and the
        backward-only slabs over the same bytes, where two of them share
        bytes only if no backward step uses both
        (:meth:`_Slab.lay_out`). No forward-only slab is read after the
        forward pass and no backward-only slab before the backward pass
        writes it, so the two layouts never hold live data at the same
        time."""
        planned = self._planned
        base = _Slab.lay_out(planned["keep"])
        del self._planned
        return max(_Slab.lay_out(planned[phase], base) for phase in ("forward", "backward"))

    @staticmethod
    def _emit_fallback(gc, kind: str, replicas: int) -> None:
        """Report one request run off the kernel on its replica's bus."""
        bus = getattr(gc.task, "probes", None)
        if bus is not None:
            bus.kernel_fallback(kind, replicas)

    # ------------------------------------------------------------------
    def execute(self, gcs: list) -> None:
        """Run every request's gradient (a group of one included): the
        requests are split into shares, each share runs its requests one
        at a time in its lane's region, and the step returns once every
        share is done.

        A group that carries a ``theta`` / ``out`` of another dtype than
        the kernel's runs request by request through each task's own
        ``run`` instead, with a ``kernel_fallback`` event per request.
        (``DLGradTask.run`` checks the dtype before it comes here, so a
        kernel of one never takes that branch.)
        """
        k = len(gcs)
        dt = self.dtype
        for gc in gcs:
            if gc.theta.dtype != dt or gc.out.dtype != dt:
                for g in gcs:
                    self._emit_fallback(g, "dtype", k)
                    g.execute()
                return
        prof = _profiler.ACTIVE
        prof_t0 = prof.start()
        # Stage every request's batch indices (each from its own RNG
        # stream, in request order — the draws a serial run would make).
        # The shares gather with mode="clip", which skips take's buffered
        # bounds pass (with out=, "raise" gathers into a temporary
        # first); the one check is here.
        t0 = prof.start()
        n_train = self.train_x.shape[0]
        rows = []
        for gc in gcs:
            idx = gc.task.stage()
            if idx.min() < 0 or idx.max() >= n_train:
                raise IndexError(f"staged batch index out of bounds for {n_train} samples")
            rows.append(idx)
        prof.stop("kernel.stage", t0)
        network = self.network
        requests = [
            (
                idx,
                gc.task.workspace.cached_views(gc.theta, network._all_param_views),
                gc.task.workspace.cached_views(gc.out, network._all_param_views),
            )
            for idx, gc in zip(rows, gcs)
        ]
        count = min(self.lanes, k)
        lane_views = self._lane_views
        while len(lane_views) < count:
            lane_views.append(_Lane(self))
        _lanes.each(count, partial(self._run_share, requests, count))
        for gc in gcs:
            if gc.post is not None:
                gc.post()
        prof.stop("kernel.execute", prof_t0)

    def _run_share(self, requests: list, count: int, j: int) -> None:
        """Share ``j`` of ``count``: requests ``j*K//count`` to
        ``(j+1)*K//count``, one at a time in lane ``j``'s region, each
        the whole step (batch gather, forward pass, softmax
        cross-entropy gradient, backward pass). Its spans are recorded
        for share 0 only, which runs on the calling thread (the profiler
        is not thread-safe)."""
        k = len(requests)
        lane = self._lane_views[j]
        prof = _profiler.ACTIVE if j == 0 else _profiler.NULL
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, params, grads in requests[j * k // count : (j + 1) * k // count]:
                t0 = prof.start()
                self.train_x.take(idx, axis=0, out=lane.x, mode="clip")
                self.train_y.take(idx, axis=0, out=lane.y, mode="clip")
                prof.stop("kernel.gather", t0)
                logits, fwd_in = self._forward(lane, params, prof)
                t0 = prof.start()
                self._softmax_ce(lane, logits)
                prof.stop("kernel.softmax", t0)
                self._backward(lane, logits, fwd_in, params, grads, prof)

    # ------------------------------------------------------------------
    def _forward(self, lane: _Lane, params: list, prof) -> tuple:
        """One request's forward pass: its logits, and each dense
        layer's input conduit (what that layer's backward step reads)."""
        n = self.batch
        fwd_in: dict = {}
        cur = lane.x
        for step in lane.steps:
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                i, out2 = step[1], step[2]
                fwd_in[i] = cur
                W, b = params[i]
                np.matmul(cur, W, out=out2)
                out2 += b
                cur = out2
            elif tag == "relu":
                mask = step[2]
                np.greater(cur, 0, out=mask)
                np.multiply(cur, mask, out=cur)
            elif tag == "conv2d":
                _, i, bufs, _span = step
                cols3, mm3, out4, _gcols3, _rows5, _gx4, gather, dims = bufs
                _c, _h, _w, f, oh, ow, _kh, _kw = dims
                W, b = params[i]
                # One im2col gather into the reference ``cols`` layout, so
                # the matmul below sees identical operands. mode="clip"
                # only skips take's buffered bounds pass; the offsets are
                # in range by construction.
                np.take(cur.reshape(n, -1), gather, axis=1, out=cols3.reshape(n, -1), mode="clip")
                np.matmul(cols3, W.T, out=mm3)
                out3 = out4.reshape(n, f, oh * ow)
                np.copyto(out3, mm3.transpose(0, 2, 1))
                # The reference adds b before the transpose: the same one
                # addition per element, here along contiguous rows.
                out3 += b[:, None]
                cur = out4
            elif tag == "maxpool2d":
                best, idx, win, upd, le, jdx, _eq4, _gx4, dims = step[2]
                oh, ow, ph, pw = dims
                xbits = cur.view(self._bits)
                bbits, wval = best.view(self._bits), win.view(self.dtype)
                np.copyto(bbits, xbits[..., 0 : oh * ph : ph, 0 : ow * pw : pw])
                idx.fill(0)
                for j in range(1, ph * pw):
                    a, b = divmod(j, pw)
                    np.copyto(win, xbits[..., a : oh * ph : ph, b : ow * pw : pw])
                    # upd = (w > best) | (isnan(w) & ~isnan(best)):
                    # not (w <= best), unless best is NaN. Ties keep the
                    # earlier element; the first NaN is never replaced.
                    np.less_equal(wval, best, out=le)
                    np.equal(best, best, out=upd)
                    np.greater(upd, le, out=upd)
                    # bits(best) ^= (bits(best) ^ bits(w)) * upd: a raw
                    # bit move where upd, bits unchanged elsewhere.
                    np.bitwise_xor(win, bbits, out=win)
                    np.multiply(win, upd, out=win)
                    np.bitwise_xor(bbits, win, out=bbits)
                    # Window numbers rise with j: the last update wins.
                    np.multiply(upd, j, out=jdx, dtype=jdx.dtype)
                    np.maximum(idx, jdx, out=idx)
                cur = best
            else:  # flatten: one zero-copy reshape of the contiguous conduit
                cur = cur.reshape(n, -1)
            prof.stop(step[-1], t0)
        return cur, fwd_in  # the last layer is dense: cur is the logits

    def _softmax_ce(self, lane: _Lane, lg: np.ndarray) -> None:
        """In-place softmax cross-entropy gradient of one request's
        ``(N, classes)`` logits: the op sequence of
        ``softmax_cross_entropy`` with ``out=`` targets, minus the loss
        scalar the workers discard."""
        stat = lane.rowstat
        lg.max(axis=1, keepdims=True, out=stat)
        np.subtract(lg, stat, out=lg)  # shifted
        np.exp(lg, out=lg)  # exp
        lg.sum(axis=1, keepdims=True, out=stat)  # denom
        lg /= stat  # dlogits
        lg[self._rows, lane.y] -= 1.0
        lg /= self.batch  # mean over the batch

    def _backward(self, lane: _Lane, g: np.ndarray, fwd_in: dict, params: list,
                  grads: list, prof) -> None:
        """One request's backward pass, from the logits gradient ``g``
        (the last dense layer's output, turned into dlogits in place)."""
        n = self.batch
        for step in reversed(lane.steps):
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                _, i, _out2, gin2, _span = step
                gW, gb = grads[i]
                np.matmul(fwd_in[i].T, g, out=gW)
                g.sum(axis=0, out=gb)
                if gin2 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                np.matmul(g, params[i][0].T, out=gin2)
                g = gin2
            elif tag == "relu":
                np.multiply(g, step[2], out=g)
            elif tag == "conv2d":
                _, i, bufs, _span = step
                cols3, _mm3, _out4, gcols3, rows5, gx4, _gather, dims = bufs
                c, h, w, f, oh, ow, kh, kw = dims
                W = params[i][0]
                gW, gb = grads[i]
                # Exactly the reference g2 strides ((F*P, 1, P) elements),
                # so einsum/matmul match bits.
                g2 = g.reshape(n, f, oh * ow).transpose(0, 2, 1)
                # Shared with the reference layer: paths depend on shapes only.
                np.einsum("npf,npk->fk", g2, cols3, out=gW, optimize=weight_grad_path(g2, cols3))
                np.sum(g, axis=(0, 2, 3), out=gb)
                if gcols3 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                np.matmul(g2, W, out=gcols3)
                # Input-gradient scatter (col2im). Kernel row di of the
                # patch gradients is copied once into rows, whose output
                # rows are padded to the input width W with zeros; over
                # flattened (H*W) maps, kernel tap (di, dj) is then one
                # slice-add of SPAN contiguous elements at offset
                # di*W + dj. Each element gets the reference's additions
                # in the reference's (di, dj) order, plus +0.0 from the
                # pad columns that wrap onto the next row: the sum starts
                # at +0.0 and so is never -0.0, and x + 0.0 == x for
                # every other x, NaN and +-inf included.
                gx4.fill(0)
                rows5[..., ow:] = 0  # other slabs share these bytes
                gcv = gcols3.reshape(n, oh, ow, c, kh, kw).transpose(0, 4, 5, 3, 1, 2)
                gxf = gx4.reshape(n, c, h * w)
                rowsf = rows5.reshape(n, kw, c, oh * w)
                span = (oh - 1) * w + ow
                for di in range(kh):
                    np.copyto(rows5[..., :ow], gcv[:, di])
                    for dj in range(kw):
                        at = di * w + dj
                        gxf[..., at : at + span] += rowsf[:, dj, :, :span]
                g = gx4
            elif tag == "maxpool2d":
                _best4, idx, _win4, _upd4, _le4, _jdx4, eq, gx4, dims = step[2]
                oh, ow, ph, pw = dims
                if gx4 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                gbits, gxbits = g.view(self._bits), gx4.view(self._bits)
                # Only the cropped border is not a window element.
                gxbits[..., oh * ph :, :] = 0
                gxbits[..., : oh * ph, ow * pw :] = 0
                for j in range(ph * pw):
                    a, b = divmod(j, pw)
                    np.equal(idx, j, out=eq)
                    # bits(g) where window j won, +0.0 elsewhere.
                    np.multiply(
                        gbits, eq, out=gxbits[..., a : oh * ph : ph, b : ow * pw : pw]
                    )
                g = gx4
            else:  # flatten
                g = g.reshape((n,) + step[2])
            prof.stop(step[-1], t0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"ReplicaKernel({self.network.name!r}, batch={self.batch}, "
            f"dtype={self.dtype.name}, lanes={self.lanes})"
        )
