"""The training kernel: one replica-stacked gradient step for K >= 1.

Every DL gradient the simulator computes runs here. A serial run's
worker hands each request to a kernel of one
(:meth:`repro.core.problem.DLGradTask.run`); when
:class:`repro.sim.replica.LockstepCohort` advances K replica simulations
in lockstep, every round harvests the pending
:class:`~repro.sim.grad.GradCompute` requests whose tasks share a
``stack_key`` — same problem, same batch size, same dtype, and (because
replicas differ only in seed or step size) the same network — and a
:class:`ReplicaKernel` executes the group as *stacked* NumPy calls over
a replica axis. A group of one is the same code at ``k = 1``.

Bitwise identity
----------------
The reference is the allocating ``Network.loss_and_grad`` (the layers'
own ``forward`` / ``backward``); ``tests/nn/test_kernel_model.py`` holds
the kernel's gradient **bitwise identical** to it per replica on
generated networks. So the kernel only fuses operations whose stacked
form performs the exact same floating-point work per replica:

* **Elementwise ops stack freely.** ReLU forward/backward, the softmax
  shift/exp/divide chain, the gathers (``take``, ``copyto``), the pool's
  compare-and-select and the conv input-gradient slice-adds are
  elementwise (or row-local) — applying them to a ``(K*N, ...)`` block
  is the same arithmetic per row as K separate ``(N, ...)`` calls.
* **GEMMs stay per-replica.** Each replica has its own ``theta``, so
  the dense and conv matmuls/einsums loop over replicas. Every
  per-replica operand is a leading-axis slice of a stacked buffer whose
  shape *and strides* equal the serial operand's, so BLAS sees the same
  problem and reduces in the same order.
* **Dense GEMM loops may run on idle cores.** A dense layer whose
  per-request GEMM reaches ``LANE_MIN_MACS`` runs its per-request loop
  (forward ``x @ W + b``, backward ``x.T @ g``, the bias-gradient copy
  and ``g @ W.T``) over :func:`repro.utils.lanes.each`: share 0 on the
  calling thread, the rest on helper threads, joined before the next
  stacked op. Requests write disjoint buffers and each call is the same
  single-threaded BLAS call on the same operands, so the bits do not
  depend on the width (1 wherever BLAS is not pinned to one thread,
  and in a pool worker). Profiler spans stay on the calling thread.
* **Conv2D stacks its im2col.** One ``np.take`` through the layer's
  own gather table (:func:`repro.nn.layers.conv2d.patch_gather`, the
  repo's one im2col) fills a K-stacked ``(K, N, OH*OW, C*kh*kw)`` patch
  slab; the filter matmuls loop per replica over contiguous slices of it
  (exactly the reference ``cols`` layout); one stacked
  transpose-``copyto`` produces all replicas' feature maps, and the bias
  is added after it, where the inner loop is ``OH*OW`` long instead of
  ``F`` (one IEEE addition per element either way). Backward
  mirrors it: per-replica ``einsum``/``matmul`` (the contraction-path
  cache is shared with the reference layer — paths depend on shapes
  only) plus the per-replica multi-axis bias sum (kept reference-shaped: a
  stacked ``(K, N, F, OH, OW)`` reduction would reassociate), then one
  stacked zero-fill + slice-add scatter for the input gradient, over
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
  only the cropped border. Every op is elementwise, so stacking
  replicas changes nothing per replica.
* **The first layer's input gradient is skipped.** The reference backward
  computes layer 0's ``d loss / d input`` and discards it
  (``Network.loss_and_grad`` never uses the final conduit); for the
  paper's CNN this kills conv 0's ``gcols`` matmul and scatter, the
  most expensive backward ops in the step, and changes no result.
* **The loss scalar is skipped.** Worker bodies discard the return of
  their gradient function; the kernel computes only the logits
  gradient. (The reference loss reads the logits without writing
  them, so skipping it is bit-neutral.)
* **Slabs are placed by liveness.** Only what the backward pass reads
  keeps a buffer of its own: conv patches, ReLU masks, pool window
  indices, every dense layer's input and output (the input batch too,
  when layer 0 is dense, and a conv's or a pool's maps that reach a
  dense layer through ReLU / flatten). The *forward-only* slabs (the
  input batch before a spatial layer, conv GEMM outputs, maps that feed
  a pool or a conv, the pool's window and mask scratch) and the
  *backward-only* ones (conv patch gradients, the pool's mask, input
  gradients, the col2im rows) are each laid out from offset 0 of one
  shared scratch region, a byte buffer in which every slab is a view of
  its own dtype at a 64-byte-aligned offset: the forward layout is dead
  before the backward pass writes its first slab, so this is pure buffer
  reuse. Forward-only slabs are disjoint; two backward-only slabs share
  bytes when no backward step uses both (a layer's scratch lives for its
  own step, its input gradient until the layer below consumes it).

A step's scratch lives in the kernel's slabs, sized once at build. They
come from the cohort's :class:`~repro.sim.arena.BufferArena` when one is
supplied (``build(..., arena=...)``): the kernel acquires flat buffers
(the scratch region first, then one per kept slab), views them at
stacked shapes, and :meth:`ReplicaKernel.release` returns them when the
cohort rebuilds with more headroom. The cohort's arena is
deliberately *not* wired to any per-replica ``MemoryAccountant``: kernel
slabs are host-side execution scratch, and accounting them would
perturb each replica's ``pool_*`` metrics away from its serial run. A
kernel of one has no arena and allocates its slabs directly.

``build`` returns ``None`` whenever any precondition fails
(:meth:`ReplicaKernel.reject_reason`: unsupported layer kind, non-dense
head, dtype mismatch between the corpus and the parameters); every
gradient of that network then runs the reference path, and a cohort
emits one ``kernel_fallback`` probe event per request of a group it
could have stacked, so silent de-vectorizations are observable in
``metrics["kernel_fallbacks"]``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn.layers.conv2d import patch_gather, weight_grad_path
from repro.observe import profiler as _profiler
from repro.utils import lanes as _lanes

__all__ = ["ReplicaKernel"]

#: Layer kinds the kernel stacks. Anything else (e.g. a stateful
#: dropout layer, whose shared RNG stream is order-sensitive) makes
#: ``build`` decline the whole network, which then runs the reference
#: path (with ``kernel_fallback`` events where a cohort would have
#: stacked it).
_SUPPORTED_KINDS = frozenset({"dense", "relu", "flatten", "conv2d", "maxpool2d"})


#: Byte alignment of each slab inside the scratch region.
_SCRATCH_ALIGN = 64

#: Multiply-adds per request (``batch * inputs * units``) from which a
#: dense layer's per-request GEMM loop runs on the helper lanes
#: (:mod:`repro.utils.lanes`). Handing one share to a helper and joining
#: it cost ~45 us on the 2-vCPU sizing host, about one single-threaded
#: sgemm of 1.5M multiply-adds; below the floor the loop runs inline
#: (the paper's CNN's 32 x 200 x 128 layer, 0.8M, measured 1.6x slower
#: on two lanes at K = 2), above it the Table-II MLP's 256 x 784 x 128
#: and 256 x 128 x 128 layers run 0.58x and 0.82x (see
#: ``docs/simulator.md``).
LANE_MIN_MACS = 1 << 21


def _backward_reads(layers, i: int) -> bool:
    """Whether the backward pass reads the conduit layer ``i`` writes
    (``i = -1``: the stacked input batch). Only a dense layer reads its
    input back (conv keeps its patches, pool its window index, ReLU its
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
    """A planned kernel buffer: its shape and dtype, the layers whose
    backward steps use it (``live``, a backward-only slab's span; None:
    the whole pass), then its byte offset in the scratch region
    (forward-only and backward-only slabs) and its view once
    :meth:`ReplicaKernel._place` has backed it."""

    __slots__ = ("shape", "dtype", "nbytes", "live", "offset", "view")

    def __init__(self, shape: tuple, dtype: np.dtype, live: tuple | None = None) -> None:
        self.shape = shape
        self.dtype = dtype
        self.nbytes = dtype.itemsize
        for dim in shape:
            self.nbytes *= int(dim)
        self.live = live
        self.offset = 0
        self.view = None

    def meets(self, other: "_Slab") -> bool:
        """Whether the two slabs can hold live data at the same time."""
        if self.live is None or other.live is None:
            return True
        return self.live[0] <= other.live[1] and other.live[0] <= self.live[1]

    @staticmethod
    def lay_out(slabs: list) -> int:
        """Give each slab the lowest ``_SCRATCH_ALIGN``-aligned offset
        at which it overlaps no earlier slab it :meth:`meets`; return
        the end of the layout. Slabs that all meet (the forward-only
        ones) land back to back in planning order."""
        placed: list = []
        end = 0
        for slab in slabs:
            need = -(-slab.nbytes // _SCRATCH_ALIGN) * _SCRATCH_ALIGN
            offset = 0
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
    def resolve_all(cls, item):
        """``item`` with every planned slab in it (nested tuples
        included) replaced by its view."""
        if isinstance(item, cls):
            return item.view
        if isinstance(item, tuple):
            return tuple(cls.resolve_all(part) for part in item)
        return item


class ReplicaKernel:
    """Stacked forward/backward executor for one ``stack_key``.

    One kernel instance serves every task in a cohort with the same key
    (or the one task that owns a kernel of one); it holds only
    per-problem state (corpus references, the network, and its own
    ``(kmax, N, ...)`` slabs), never per-task state: the slot views of
    each request's ``theta`` / ``out`` come from its task's
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
    def build(cls, task, kmax: int, arena=None) -> "ReplicaKernel | None":
        """A kernel for groups of up to ``kmax >= 1`` requests on
        ``task``'s stack key, or None if :meth:`reject_reason` declines.

        ``arena`` optionally supplies the slabs (see the module
        docstring); without one the kernel allocates directly.
        """
        if cls.reject_reason(task) is not None:
            return None
        return cls(task, kmax, arena=arena)

    def __init__(self, task, kmax: int, arena=None) -> None:
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
        self.kmax = int(kmax)
        self._arena = arena
        self._slabs: list[np.ndarray] = []
        # Every slab by liveness, placed once the plan is complete.
        self._planned: dict[str, list[_Slab]] = {"keep": [], "forward": [], "backward": []}
        n, km = self.batch, self.kmax
        in_shape = self.train_x.shape[1:]
        layers = network.layers
        # Stacked batch gather: one take() fills all replicas' batches.
        x3 = self._slab((km, n) + in_shape, "keep" if _backward_reads(layers, -1) else "forward")
        idx = self._slab((km * n,), "keep", np.intp)
        y = self._slab((km * n,), "keep", self.train_y.dtype)
        self._rows = np.arange(km * n)
        # (K*N, 1) row statistic for the softmax (max, then denominator).
        rowstat = self._slab((km * n, 1), "keep")

        # --- plan: one step per layer with its stacked buffers. Every
        # step tuple ends with its profiler span name (constant strings:
        # the per-kind time split costs nothing when no profiler is
        # active).
        steps: list[tuple] = []
        for i, layer in enumerate(network.layers):
            layer_in, layer_out = network.layer_shapes[i]
            kind = layer.kind
            if kind == "dense":
                out3 = self._slab((km, n, layer.units), "keep")
                # Layer 0's input gradient is computed-and-discarded on
                # the reference path; the kernel skips it outright.
                gin3 = None if i == 0 else self._slab((km, n, layer_in[0]), "keep")
                # Stacked bias-gradient landing zone: one (k, units)
                # reduction replaces k per-replica sums (same axis
                # length, same accumulation order → bitwise identical),
                # then each row is copied into that replica's gb view.
                gb3 = self._slab((km, layer.units), "keep")
                wide = n * layer_in[0] * layer.units >= LANE_MIN_MACS
                steps.append(("dense", i, out3, gin3, gb3, wide, "kernel.dense"))
            elif kind == "relu":
                full = (km, n) + layer_in
                # dtype (not bool) masks: np.greater writes exact
                # 1.0/0.0, and x * 1.0f == x, x * 0.0f == ±0.0 —
                # bit-for-bit what the bool mask's promotion gives —
                # while skipping the bool→float convert per multiply.
                mask3 = self._slab(full, "keep")
                steps.append(("relu", i, mask3, "kernel.relu"))
            elif kind == "flatten":
                steps.append(("flatten", i, layer_in, "kernel.flatten"))
            elif kind == "conv2d":
                c, h, w = layer_in
                f, oh, ow = layer_out
                kh, kw = layer.kernel
                p, ckk = oh * ow, c * kh * kw
                # The K-stacked im2col slab and its companions. Each
                # per-replica slice is contiguous with exactly the
                # reference ``cols`` layout.
                cols4 = self._slab((km, n, p, ckk), "keep")
                mm4 = self._slab((km, n, p, f), "forward")
                out5 = self._slab(
                    (km, n, f, oh, ow), "keep" if _backward_reads(layers, i) else "forward"
                )
                if i == 0:
                    gcols4 = rows6 = gx5 = None  # input gradient skipped
                else:
                    gcols4 = self._slab((km, n, p, ckk), "backward", live=(i, i))
                    # One kernel row's patch gradients, channel-major, each
                    # output row padded to the input width W with zeros.
                    rows6 = self._slab((km, n, kw, c, oh, w), "backward", live=(i, i))
                    gx5 = self._slab(
                        (km, n, c, h, w), "backward", live=(_consumer(layers, i), i)
                    )
                gather = patch_gather((c, h, w), (kh, kw))
                bufs = (cols4, mm4, out5, gcols4, rows6, gx5, gather,
                        (c, h, w, f, oh, ow, kh, kw))
                steps.append(("conv2d", i, bufs, "kernel.conv2d"))
            else:  # maxpool2d: reject_reason admits no other kind
                c, h, w = layer_in
                _, oh, ow = layer_out
                ph, pw = layer.pool
                full = (km, n, c, oh, ow)
                best5 = self._slab(full, "keep" if _backward_reads(layers, i) else "forward")
                # The window index, in the narrowest unsigned type that
                # holds PH*PW - 1, is all the backward pass reads.
                idx5 = self._slab(full, "keep", np.min_scalar_type(ph * pw - 1))
                # Forward scratch: one window's bits, the update mask, a
                # comparison, and the mask times the window number.
                win5 = self._slab(full, "forward", self._bits)
                upd5 = self._slab(full, "forward", np.bool_)
                le5 = self._slab(full, "forward", np.bool_)
                jdx5 = self._slab(full, "forward", idx5.dtype)
                if i == 0:
                    eq5 = gx5 = None  # input gradient skipped
                else:
                    eq5 = self._slab(full, "backward", np.bool_, live=(i, i))
                    gx5 = self._slab(
                        (km, n, c, h, w), "backward", live=(_consumer(layers, i), i)
                    )
                bufs = (best5, idx5, win5, upd5, le5, jdx5, eq5, gx5, (oh, ow, ph, pw))
                steps.append(("maxpool2d", i, bufs, "kernel.maxpool2d"))
        self._place()
        self._x3, self._idx, self._y, self._rowstat = (x3.view, idx.view, y.view, rowstat.view)
        self._xflat = self._x3.reshape((km * n,) + in_shape)
        self._steps = [_Slab.resolve_all(step) for step in steps]
        # Per-call record for the backward pass: each dense layer's
        # stacked input conduit.
        self._fwd_in: list = [None] * len(network.layers)
        self._logits = None

    # ------------------------------------------------------------------
    def _alloc(self, shape: tuple, dtype) -> np.ndarray:
        """A kernel buffer: arena-recycled (and tracked for
        :meth:`release`) when the cohort supplied an arena, a plain
        ``np.empty`` otherwise."""
        if self._arena is None:
            return np.empty(shape, dtype=dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        flat = self._arena.acquire(size, dtype)
        self._slabs.append(flat)
        return flat.reshape(shape)

    def _slab(self, shape: tuple, phase: str, dtype=None, live=None) -> "_Slab":
        """Plan a slab (of the kernel's dtype unless given): ``"keep"``
        for its own buffer, ``"forward"`` / ``"backward"`` for the
        scratch region (a backward-only slab with the span of layers
        whose backward steps use it). :meth:`_place` gives it its
        view."""
        slab = _Slab(shape, np.dtype(dtype or self.dtype), live)
        self._planned[phase].append(slab)
        return slab

    def _place(self) -> None:
        """Back every planned slab. The forward-only slabs are laid out
        disjointly from byte 0 of one region, each at a
        ``_SCRATCH_ALIGN``-byte offset and viewed as its own dtype, and
        the backward-only slabs over the same region, where two of them
        share bytes only if no backward step uses both
        (:meth:`_Slab.lay_out`). The region is as large as the larger of
        the two layouts (one byte buffer: an arena acquisition, or
        ``np.empty`` for a kernel of one). No forward-only slab is read
        after the forward pass and no backward-only slab before the
        backward pass writes it, so the two layouts never hold live data
        at the same time. The region is acquired first, then the kept
        slabs one buffer each: a kernel built after another one died
        then finds the hole the old region left before small buffers
        split it (otherwise the heap grows by a region per box)."""
        size = max(_Slab.lay_out(self._planned[phase]) for phase in ("forward", "backward"))
        if size:
            region = self._alloc((size,), np.uint8)
            for phase in ("forward", "backward"):
                for slab in self._planned[phase]:
                    raw = region[slab.offset : slab.offset + slab.nbytes]
                    slab.view = raw.view(slab.dtype).reshape(slab.shape)
        for slab in self._planned["keep"]:
            slab.view = self._alloc(slab.shape, slab.dtype)

    def release(self) -> None:
        """Return every arena-backed slab (called when the cohort
        rebuilds the kernel with more headroom)."""
        if self._arena is None:
            return
        for flat in self._slabs:
            self._arena.release(flat)
        self._slabs.clear()

    @staticmethod
    def _emit_fallback(gc, kind: str, replicas: int) -> None:
        """Report one de-vectorized request on its replica's bus."""
        bus = getattr(gc.task, "probes", None)
        if bus is not None:
            bus.kernel_fallback(kind, replicas)

    # ------------------------------------------------------------------
    def execute(self, gcs: list) -> None:
        """Run every request's gradient as one stacked step (a group of
        one included).

        A group that outgrows ``kmax``, or that carries a ``theta`` /
        ``out`` of another dtype than the kernel's, runs request by
        request through each task's own ``run`` instead, with a
        ``kernel_fallback`` event per request. (``DLGradTask.run``
        checks the dtype before it comes here, so a kernel of one never
        takes that branch.)
        """
        k = len(gcs)
        if k > self.kmax:
            for gc in gcs:
                self._emit_fallback(gc, "overflow", k)
                gc.execute()
            return
        dt = self.dtype
        for gc in gcs:
            if gc.theta.dtype != dt or gc.out.dtype != dt:
                for g in gcs:
                    self._emit_fallback(g, "dtype", k)
                    g.execute()
                return
        prof = _profiler.ACTIVE
        prof_t0 = prof.start()
        tasks = [gc.task for gc in gcs]
        n = self.batch
        kn = k * n
        # Stage every replica's batch indices (each from its own RNG
        # stream, in replica order — the draws a serial run would make).
        t0 = prof.start()
        idx = self._idx[:kn]
        pos = 0
        for task in tasks:
            idx[pos : pos + n] = task.stage()
            pos += n
        # mode="clip" skips take's buffered bounds pass (with out=, "raise"
        # gathers into a temporary first); the one check is here.
        n_train = self.train_x.shape[0]
        if kn and (idx.min() < 0 or idx.max() >= n_train):
            raise IndexError(f"staged batch index out of bounds for {n_train} samples")
        self.train_x.take(idx, axis=0, out=self._xflat[:kn], mode="clip")
        self.train_y.take(idx, axis=0, out=self._y[:kn], mode="clip")
        prof.stop("kernel.stage", t0)
        network = self.network
        params = [
            task.workspace.cached_views(gc.theta, network._all_param_views)
            for task, gc in zip(tasks, gcs)
        ]
        grads = [
            task.workspace.cached_views(gc.out, network._all_param_views)
            for task, gc in zip(tasks, gcs)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            self._forward(k, params)
            t0 = prof.start()
            self._softmax_ce(k)
            prof.stop("kernel.softmax", t0)
            self._backward(k, params, grads)
        for gc in gcs:
            if gc.post is not None:
                gc.post()
        prof.stop("kernel.execute", prof_t0)

    # ------------------------------------------------------------------
    def _forward(self, k: int, params: list) -> None:
        prof = _profiler.ACTIVE
        fwd_in = self._fwd_in
        n = self.batch
        cur = self._x3
        for step in self._steps:
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                _, i, out3, _gin3, _gb3, wide, _span = step
                fwd_in[i] = cur
                _lanes.each(k, partial(_dense_forward, cur, out3, params, i), wide)
                cur = out3
            elif tag == "relu":
                mask3 = step[2]
                ck = cur[:k]
                np.greater(ck, 0, out=mask3[:k])
                np.multiply(ck, mask3[:k], out=ck)
            elif tag == "conv2d":
                _, i, bufs, _span = step
                cols4, mm4, out5, _gcols4, _rows6, _gx5, gather, dims = bufs
                _c, _h, _w, f, oh, ow, _kh, _kw = dims
                # One stacked im2col gather: per-replica slices of cols4
                # are contiguous (N, OH*OW, C*kh*kw) — the reference
                # ``cols`` layout, so the matmuls below see identical
                # operands. mode="clip" only skips take's buffered bounds
                # pass; the offsets are in range by construction.
                np.take(
                    cur[:k].reshape(k * n, -1), gather, axis=1,
                    out=cols4[:k].reshape(k * n, -1), mode="clip",
                )
                for r in range(k):
                    np.matmul(cols4[r], params[r][i][0].T, out=mm4[r])
                out4 = out5[:k].reshape(k, n, f, oh * ow)
                np.copyto(out4, mm4[:k].transpose(0, 1, 3, 2))
                # The reference adds b before the transpose: the same one
                # addition per element, here along contiguous rows.
                for r in range(k):
                    out4[r] += params[r][i][1][:, None]
                cur = out5
            elif tag == "maxpool2d":
                best5, idx5, win5, upd5, le5, jdx5, _eq5, _gx5, dims = step[2]
                oh, ow, ph, pw = dims
                xbits = cur[:k].view(self._bits)
                best, idx, win, upd, le, jdx = (
                    best5[:k], idx5[:k], win5[:k], upd5[:k], le5[:k], jdx5[:k]
                )
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
                cur = best5
            else:  # flatten: one zero-copy reshape of the contiguous conduit
                cur = cur.reshape(cur.shape[0], cur.shape[1], -1)
            prof.stop(step[-1], t0)
        self._logits = cur  # the last layer is dense

    def _softmax_ce(self, k: int) -> None:
        """In-place softmax cross-entropy gradient over the stacked
        logits: the op sequence of ``softmax_cross_entropy`` with
        ``out=`` targets, applied to all replicas' rows at once (each
        row's arithmetic is independent, so per-replica slices are
        bitwise identical), minus the loss scalar the workers discard."""
        n = self.batch
        kn = k * n
        lg = self._logits[:k].reshape(kn, -1)
        stat = self._rowstat[:kn]
        lg.max(axis=1, keepdims=True, out=stat)
        np.subtract(lg, stat, out=lg)  # shifted
        np.exp(lg, out=lg)  # exp
        lg.sum(axis=1, keepdims=True, out=stat)  # denom
        lg /= stat  # dlogits
        lg[self._rows[:kn], self._y[:kn]] -= 1.0
        lg /= n  # mean over each replica's own batch
        self._logits = None

    def _backward(self, k: int, params: list, grads: list) -> None:
        prof = _profiler.ACTIVE
        fwd_in = self._fwd_in
        n = self.batch
        # The gradient conduit starts at the last dense layer's stacked
        # output buffer, which _softmax_ce turned into dlogits in place.
        g = self._steps[-1][2]
        for step in reversed(self._steps):
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                _, i, _out3, gin3, gb3, wide, _span = step
                # One stacked reduction over the batch axis for every
                # replica's bias gradient (bitwise-identical to the
                # per-replica sums), copied out to each gb view below.
                g[:k].sum(axis=1, out=gb3[:k])
                backward = partial(_dense_backward, fwd_in[i], g, gin3, gb3, params, grads, i)
                _lanes.each(k, backward, wide)
                if gin3 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                g = gin3
            elif tag == "relu":
                mask3 = step[2]
                np.multiply(g[:k], mask3[:k], out=g[:k])
            elif tag == "conv2d":
                _, i, bufs, _span = step
                cols4, _mm4, _out5, gcols4, rows6, gx5, _gather, dims = bufs
                c, h, w, f, oh, ow, kh, kw = dims
                p = oh * ow
                # Per-replica view with exactly the reference g2 strides
                # ((F*P, 1, P) elements), so einsum/matmul match bits.
                g4 = g[:k].reshape(k, n, f, p).transpose(0, 1, 3, 2)
                # Shared with the reference layer: paths depend on shapes only.
                path = weight_grad_path(g4[0], cols4[0])
                for r in range(k):
                    W = params[r][i][0]
                    gW, gb = grads[r][i]
                    g2 = g4[r]
                    np.einsum("npf,npk->fk", g2, cols4[r], out=gW, optimize=path)
                    # The multi-axis bias sum stays per replica: a
                    # stacked (k, N, F, OH, OW) reduction would change
                    # the pairwise-summation tree, hence the bits.
                    np.sum(g[r], axis=(0, 2, 3), out=gb)
                    if gcols4 is not None:
                        np.matmul(g2, W, out=gcols4[r])
                if gcols4 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                # Stacked input-gradient scatter (col2im). Kernel row di
                # of the patch gradients is copied once into rows, whose
                # output rows are padded to the input width W with zeros;
                # over flattened (H*W) maps, kernel tap (di, dj) is then
                # one slice-add of SPAN contiguous elements at offset
                # di*W + dj. Each element gets the reference's additions
                # in the reference's (di, dj) order, plus +0.0 from the
                # pad columns that wrap onto the next row: the sum starts
                # at +0.0 and so is never -0.0, and x + 0.0 == x for
                # every other x, NaN and +-inf included.
                gx5[:k].fill(0)
                rows = rows6[:k]
                rows[..., ow:] = 0  # other slabs share these bytes
                gcv = gcols4[:k].reshape(k, n, oh, ow, c, kh, kw).transpose(
                    0, 1, 5, 6, 4, 2, 3
                )
                gxf = gx5[:k].reshape(k, n, c, h * w)
                rowsf = rows.reshape(k, n, kw, c, oh * w)
                span = (oh - 1) * w + ow
                for di in range(kh):
                    np.copyto(rows[..., :ow], gcv[:, :, di])
                    for dj in range(kw):
                        at = di * w + dj
                        gxf[..., at : at + span] += rowsf[:, :, dj, :, :span]
                g = gx5
            elif tag == "maxpool2d":
                _best5, idx5, _win5, _upd5, _le5, _jdx5, eq5, gx5, dims = step[2]
                oh, ow, ph, pw = dims
                if gx5 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                gbits, gxbits = g[:k].view(self._bits), gx5[:k].view(self._bits)
                idx, eq = idx5[:k], eq5[:k]
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
                g = gx5
            else:  # flatten
                g = g.reshape((g.shape[0], n) + step[2])
            prof.stop(step[-1], t0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"ReplicaKernel({self.network.name!r}, kmax={self.kmax}, "
            f"batch={self.batch}, dtype={self.dtype.name})"
        )


# ----------------------------------------------------------------------
# Per-request dense GEMMs: request ``r`` reads only shared inputs and its
# own theta, and writes only its own slab rows and gradient views, so
# the lanes may run different ``r`` at once.
def _dense_forward(x3, out3, params, i: int, r: int) -> None:
    W, b = params[r][i]
    np.matmul(x3[r], W, out=out3[r])
    out3[r] += b


def _dense_backward(x3, g3, gin3, gb3, params, grads, i: int, r: int) -> None:
    gW, gb = grads[r][i]
    gr = g3[r]
    np.matmul(x3[r].T, gr, out=gW)
    gb[...] = gb3[r]
    if gin3 is not None:
        np.matmul(gr, params[r][i][0].T, out=gin3[r])
