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
* **Whole shares of requests may run on idle cores.** A step whose
  per-request GEMMs reach ``LANE_MIN_MACS`` multiply-adds splits its K
  requests into ``min(lanes, K)`` contiguous shares and hands them to
  :func:`repro.utils.lanes.each` once: share 0 runs on the calling
  thread, the others on whichever thread claims them first, each share
  the whole step (batch gather, forward, softmax-CE, backward), and the
  step returns after one join. Requests write disjoint slab rows and
  gradient views, each share's scratch lives in a region of its own,
  and every op is elementwise, row-local, or the same per-request call
  on the same operand slices with the same strides, so the bits do not
  depend on the width (1 wherever BLAS is not pinned to one thread, and
  in a pool worker), on how the requests are split, nor on which thread
  ran a share. Profiler spans cover share 0.
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
  keeps a buffer of its own, ``kmax`` requests deep: conv patches, ReLU
  masks, pool window indices, every dense layer's input and output (the
  input batch too, when layer 0 is dense, and a conv's or a pool's maps
  that reach a dense layer through ReLU / flatten). The *forward-only*
  slabs (the input batch before a spatial layer, conv GEMM outputs,
  maps that feed a pool or a conv, the pool's window and mask scratch)
  and the *backward-only* ones (conv patch gradients, the pool's mask,
  input gradients, the col2im rows) are each laid out from offset 0 of
  a scratch region sized for the largest share, a byte buffer in which
  every slab is a view of its own dtype at a 64-byte-aligned offset:
  the forward layout is dead before the backward pass writes its first
  slab, so this is pure buffer reuse. Forward-only slabs are disjoint;
  two backward-only slabs share bytes when no backward step uses both
  (a layer's scratch lives for its own step, its input gradient until
  the layer below consumes it). Every share of a step has a region of
  its own (one region, ``kmax`` requests deep, at one lane), so shares
  running at once never write the same bytes.

A step's scratch lives in the kernel's slabs, sized once at build. They
come from the cohort's :class:`~repro.sim.arena.BufferArena` when one is
supplied (``build(..., arena=...)``): the kernel acquires flat buffers
(the shares' scratch regions first, as one buffer, then one per kept
slab), views them at stacked shapes, and :meth:`ReplicaKernel.release` returns them when the
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
    """A planned kernel buffer: its shape and dtype, whether it is kept
    (a buffer of its own, ``kmax`` requests deep) or scratch (in every
    share's region, as deep as the largest share), the layers whose
    backward steps use it (``live``, a backward-only slab's span; None:
    the whole pass), then its byte offset in a region and, once
    :meth:`ReplicaKernel._place` has backed it, its views (one per
    region; a kept slab's one buffer serves every share)."""

    __slots__ = ("shape", "dtype", "nbytes", "kept", "live", "offset", "views")

    def __init__(
        self, shape: tuple, dtype: np.dtype, kept: bool, live: tuple | None = None
    ) -> None:
        self.shape = shape
        self.dtype = dtype
        self.nbytes = dtype.itemsize
        for dim in shape:
            self.nbytes *= int(dim)
        self.kept = kept
        self.live = live
        self.offset = 0
        self.views: list = []

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
    def resolve_all(cls, item, region: int, lo: int, hi: int):
        """``item`` with every planned slab in it (nested tuples
        included) replaced by its rows for requests ``[lo, hi)`` on
        ``region``: rows ``lo:hi`` of a kept slab, the first ``hi - lo``
        rows of its view in that region for a scratch slab."""
        if isinstance(item, cls):
            return item.views[0][lo:hi] if item.kept else item.views[region][: hi - lo]
        if isinstance(item, tuple):
            return tuple(cls.resolve_all(part, region, lo, hi) for part in item)
        return item


class _Share:
    """Requests ``[lo, hi)`` of a step, share ``j`` of its step, with
    every buffer the share touches already sliced to them (its scratch
    in region ``j``)."""

    __slots__ = ("lo", "hi", "steps", "x", "xflat", "idx", "y", "rowstat")

    def __init__(self, kernel: "ReplicaKernel", j: int, lo: int, hi: int) -> None:
        n = kernel.batch
        resolve = partial(_Slab.resolve_all, region=j, lo=lo, hi=hi)
        self.lo, self.hi = lo, hi
        self.steps = [resolve(step) for step in kernel._steps]
        self.x = resolve(kernel._x)
        self.xflat = self.x.reshape(((hi - lo) * n,) + self.x.shape[2:])
        self.idx = resolve(kernel._idx).reshape(-1)
        self.y = resolve(kernel._y).reshape(-1)
        self.rowstat = resolve(kernel._rowstat).reshape(-1, 1)


class ReplicaKernel:
    """Stacked forward/backward executor for one ``stack_key``.

    One kernel instance serves every task in a cohort with the same key
    (or the one task that owns a kernel of one); it holds only
    per-problem state (corpus references, the network, and its own
    ``(kmax, N, ...)`` slabs and per-share scratch), never per-task
    state: the slot views of each request's ``theta`` / ``out`` come
    from its task's :class:`~repro.nn.workspace.StepWorkspace` memo.
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
        n, km = self.batch, self.kmax
        layers = network.layers
        shapes = network.layer_shapes
        # The lanes a step runs on, and the rows of its largest share.
        wide = _request_macs(layers, shapes, n) >= LANE_MIN_MACS
        self.lanes = min(_lanes.width(), km) if wide else 1
        self._share_rows = -(-km // self.lanes)
        # Every slab by liveness, placed once the plan is complete.
        self._planned: dict[str, list[_Slab]] = {"keep": [], "forward": [], "backward": []}
        in_shape = self.train_x.shape[1:]
        # Stacked batch gather: one take() fills a share's batches.
        x = self._slab((n,) + in_shape, "keep" if _backward_reads(layers, -1) else "forward")
        idx = self._slab((n,), "keep", np.intp)
        y = self._slab((n,), "keep", self.train_y.dtype)
        self._rows = np.arange(self._share_rows * n)
        # Row statistic for the softmax (max, then denominator).
        rowstat = self._slab((n, 1), "keep")

        # --- plan: one step per layer with its stacked buffers, each
        # slab planned per request (its leading axis is added by
        # _slab). Every step tuple ends with its profiler span name
        # (constant strings: the per-kind time split costs nothing when
        # no profiler is active).
        steps: list[tuple] = []
        for i, layer in enumerate(layers):
            layer_in, layer_out = shapes[i]
            kind = layer.kind
            if kind == "dense":
                out3 = self._slab((n, layer.units), "keep")
                # Layer 0's input gradient is computed-and-discarded on
                # the reference path; the kernel skips it outright.
                gin3 = None if i == 0 else self._slab((n, layer_in[0]), "keep")
                # Stacked bias-gradient landing zone: one (k, units)
                # reduction replaces k per-replica sums (same axis
                # length, same accumulation order → bitwise identical),
                # then each row is copied into that replica's gb view.
                gb3 = self._slab((layer.units,), "keep")
                steps.append(("dense", i, out3, gin3, gb3, "kernel.dense"))
            elif kind == "relu":
                # dtype (not bool) masks: np.greater writes exact
                # 1.0/0.0, and x * 1.0f == x, x * 0.0f == ±0.0 —
                # bit-for-bit what the bool mask's promotion gives —
                # while skipping the bool→float convert per multiply.
                mask3 = self._slab((n,) + layer_in, "keep")
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
                cols4 = self._slab((n, p, ckk), "keep")
                mm4 = self._slab((n, p, f), "forward")
                out5 = self._slab(
                    (n, f, oh, ow), "keep" if _backward_reads(layers, i) else "forward"
                )
                if i == 0:
                    gcols4 = rows6 = gx5 = None  # input gradient skipped
                else:
                    gcols4 = self._slab((n, p, ckk), "backward", live=(i, i))
                    # One kernel row's patch gradients, channel-major, each
                    # output row padded to the input width W with zeros.
                    rows6 = self._slab((n, kw, c, oh, w), "backward", live=(i, i))
                    gx5 = self._slab((n, c, h, w), "backward", live=(_consumer(layers, i), i))
                gather = patch_gather((c, h, w), (kh, kw))
                bufs = (cols4, mm4, out5, gcols4, rows6, gx5, gather,
                        (c, h, w, f, oh, ow, kh, kw))
                steps.append(("conv2d", i, bufs, "kernel.conv2d"))
            else:  # maxpool2d: reject_reason admits no other kind
                c, h, w = layer_in
                _, oh, ow = layer_out
                ph, pw = layer.pool
                full = (n, c, oh, ow)
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
                    gx5 = self._slab((n, c, h, w), "backward", live=(_consumer(layers, i), i))
                bufs = (best5, idx5, win5, upd5, le5, jdx5, eq5, gx5, (oh, ow, ph, pw))
                steps.append(("maxpool2d", i, bufs, "kernel.maxpool2d"))
        self._place()
        self._x, self._idx, self._y, self._rowstat = x, idx, y, rowstat
        self._steps = steps
        # A step's shares by group size, built on first use.
        self._shares: dict[int, list[_Share]] = {}

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
        """Plan a slab of per-request ``shape`` (of the kernel's dtype
        unless given): ``"keep"`` for its own buffer of ``kmax``
        requests, ``"forward"`` / ``"backward"`` for each share's scratch
        region, sized for the largest share (a backward-only slab with
        the span of layers whose backward steps use it). :meth:`_place`
        gives it its views."""
        kept = phase == "keep"
        rows = self.kmax if kept else self._share_rows
        slab = _Slab((rows,) + shape, np.dtype(dtype or self.dtype), kept, live)
        self._planned[phase].append(slab)
        return slab

    def _place(self) -> None:
        """Back every planned slab. The forward-only slabs are laid out
        disjointly from byte 0 of a region, each at a
        ``_SCRATCH_ALIGN``-byte offset and viewed as its own dtype, and
        the backward-only slabs over the same region, where two of them
        share bytes only if no backward step uses both
        (:meth:`_Slab.lay_out`). No forward-only slab is read after the
        forward pass and no backward-only slab before the backward pass
        writes it, so the two layouts never hold live data at the same
        time. Each of the up to ``lanes`` shares of a step gets a region
        of its own, as large as the larger of the two layouts: the
        regions are consecutive slices of one byte buffer (an arena
        acquisition, or ``np.empty`` for a kernel of one), so two shares
        running at once never write the same bytes. The buffer is
        acquired first, then the kept slabs one buffer each: a kernel
        built after another one died then finds the hole the old buffer
        left before small buffers split it (otherwise the heap grows by
        a region per box)."""
        planned = self._planned
        size = max(_Slab.lay_out(planned[phase]) for phase in ("forward", "backward"))
        self._regions: list[np.ndarray] = []
        if size:
            buffer = self._alloc((self.lanes * size,), np.uint8)
            self._regions = [buffer[j * size : (j + 1) * size] for j in range(self.lanes)]
            for slab in planned["forward"] + planned["backward"]:
                at = slice(slab.offset, slab.offset + slab.nbytes)
                slab.views = [
                    region[at].view(slab.dtype).reshape(slab.shape) for region in self._regions
                ]
        for slab in planned["keep"]:
            slab.views = [self._alloc(slab.shape, slab.dtype)]
        del self._planned

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

    def _split(self, k: int) -> list[_Share]:
        """``k`` requests as ``min(lanes, k)`` contiguous shares, the
        last ones one request larger when they do not divide evenly."""
        shares = self._shares.get(k)
        if shares is None:
            count = min(self.lanes, k)
            shares = self._shares[k] = [
                _Share(self, j, j * k // count, (j + 1) * k // count) for j in range(count)
            ]
        return shares

    # ------------------------------------------------------------------
    def execute(self, gcs: list) -> None:
        """Run every request's gradient as one stacked step (a group of
        one included): the requests are split into shares, each share
        runs the whole step, and the step returns once every share is
        done.

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
        # Stage every replica's batch indices (each from its own RNG
        # stream, in replica order — the draws a serial run would make).
        t0 = prof.start()
        idx = self._idx.views[0][:k]
        tasks = [gc.task for gc in gcs]
        for r, task in enumerate(tasks):
            idx[r] = task.stage()
        # The shares gather with mode="clip", which skips take's buffered
        # bounds pass (with out=, "raise" gathers into a temporary
        # first); the one check is here.
        n_train = self.train_x.shape[0]
        if k and (idx.min() < 0 or idx.max() >= n_train):
            raise IndexError(f"staged batch index out of bounds for {n_train} samples")
        prof.stop("kernel.stage", t0)
        shares = self._split(k)
        network = self.network
        params = [
            task.workspace.cached_views(gc.theta, network._all_param_views)
            for task, gc in zip(tasks, gcs)
        ]
        grads = [
            task.workspace.cached_views(gc.out, network._all_param_views)
            for task, gc in zip(tasks, gcs)
        ]
        _lanes.each(len(shares), partial(self._run_share, shares, params, grads))
        for gc in gcs:
            if gc.post is not None:
                gc.post()
        prof.stop("kernel.execute", prof_t0)

    def _run_share(self, shares: list, params: list, grads: list, j: int) -> None:
        """The whole step over share ``j``: its batch gather, forward
        pass, softmax cross-entropy gradient and backward pass. Its
        spans are recorded for share 0 only, which runs on the calling
        thread (the profiler is not thread-safe)."""
        share = shares[j]
        lo, hi = share.lo, share.hi
        prof = _profiler.ACTIVE if j == 0 else _profiler.NULL
        t0 = prof.start()
        self.train_x.take(share.idx, axis=0, out=share.xflat, mode="clip")
        self.train_y.take(share.idx, axis=0, out=share.y, mode="clip")
        prof.stop("kernel.gather", t0)
        params, grads = params[lo:hi], grads[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            logits, fwd_in = self._forward(share, params, prof)
            t0 = prof.start()
            self._softmax_ce(share, logits)
            prof.stop("kernel.softmax", t0)
            self._backward(share, logits, fwd_in, params, grads, prof)

    # ------------------------------------------------------------------
    def _forward(self, share: _Share, params: list, prof) -> tuple:
        """The share's forward pass: its logits, and each dense layer's
        input conduit (what that layer's backward step reads)."""
        k = share.hi - share.lo
        n = self.batch
        fwd_in: dict = {}
        cur = share.x
        for step in share.steps:
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                _, i, out3, _gin3, _gb3, _span = step
                fwd_in[i] = cur
                for r in range(k):
                    W, b = params[r][i]
                    np.matmul(cur[r], W, out=out3[r])
                    out3[r] += b
                cur = out3
            elif tag == "relu":
                mask3 = step[2]
                np.greater(cur, 0, out=mask3)
                np.multiply(cur, mask3, out=cur)
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
                    cur.reshape(k * n, -1), gather, axis=1,
                    out=cols4.reshape(k * n, -1), mode="clip",
                )
                for r in range(k):
                    np.matmul(cols4[r], params[r][i][0].T, out=mm4[r])
                out4 = out5.reshape(k, n, f, oh * ow)
                np.copyto(out4, mm4.transpose(0, 1, 3, 2))
                # The reference adds b before the transpose: the same one
                # addition per element, here along contiguous rows.
                for r in range(k):
                    out4[r] += params[r][i][1][:, None]
                cur = out5
            elif tag == "maxpool2d":
                best, idx, win, upd, le, jdx, _eq5, _gx5, dims = step[2]
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
                cur = cur.reshape(k, n, -1)
            prof.stop(step[-1], t0)
        return cur, fwd_in  # the last layer is dense: cur is the logits

    def _softmax_ce(self, share: _Share, logits: np.ndarray) -> None:
        """In-place softmax cross-entropy gradient over the share's
        stacked logits: the op sequence of ``softmax_cross_entropy``
        with ``out=`` targets, applied to all its replicas' rows at once
        (each row's arithmetic is independent, so per-replica slices are
        bitwise identical), minus the loss scalar the workers discard."""
        n = self.batch
        kn = (share.hi - share.lo) * n
        lg = logits.reshape(kn, -1)
        stat = share.rowstat
        lg.max(axis=1, keepdims=True, out=stat)
        np.subtract(lg, stat, out=lg)  # shifted
        np.exp(lg, out=lg)  # exp
        lg.sum(axis=1, keepdims=True, out=stat)  # denom
        lg /= stat  # dlogits
        lg[self._rows[:kn], share.y] -= 1.0
        lg /= n  # mean over each replica's own batch

    def _backward(self, share: _Share, g: np.ndarray, fwd_in: dict, params: list,
                  grads: list, prof) -> None:
        """The share's backward pass, from the logits gradient ``g``
        (the last dense layer's output, turned into dlogits in place)."""
        k = share.hi - share.lo
        n = self.batch
        for step in reversed(share.steps):
            tag = step[0]
            t0 = prof.start()
            if tag == "dense":
                _, i, _out3, gin3, gb3, _span = step
                # One stacked reduction over the batch axis for every
                # replica's bias gradient (bitwise-identical to the
                # per-replica sums), copied out to each gb view below.
                g.sum(axis=1, out=gb3)
                x3 = fwd_in[i]
                for r in range(k):
                    gW, gb = grads[r][i]
                    gr = g[r]
                    np.matmul(x3[r].T, gr, out=gW)
                    gb[...] = gb3[r]
                    if gin3 is not None:
                        np.matmul(gr, params[r][i][0].T, out=gin3[r])
                if gin3 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                g = gin3
            elif tag == "relu":
                np.multiply(g, step[2], out=g)
            elif tag == "conv2d":
                _, i, bufs, _span = step
                cols4, _mm4, _out5, gcols4, rows6, gx5, _gather, dims = bufs
                c, h, w, f, oh, ow, kh, kw = dims
                p = oh * ow
                # Per-replica view with exactly the reference g2 strides
                # ((F*P, 1, P) elements), so einsum/matmul match bits.
                g4 = g.reshape(k, n, f, p).transpose(0, 1, 3, 2)
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
                gx5.fill(0)
                rows6[..., ow:] = 0  # other slabs share these bytes
                gcv = gcols4.reshape(k, n, oh, ow, c, kh, kw).transpose(0, 1, 5, 6, 4, 2, 3)
                gxf = gx5.reshape(k, n, c, h * w)
                rowsf = rows6.reshape(k, n, kw, c, oh * w)
                span = (oh - 1) * w + ow
                for di in range(kh):
                    np.copyto(rows6[..., :ow], gcv[:, :, di])
                    for dj in range(kw):
                        at = di * w + dj
                        gxf[..., at : at + span] += rowsf[:, :, dj, :, :span]
                g = gx5
            elif tag == "maxpool2d":
                _best5, idx, _win5, _upd5, _le5, _jdx5, eq, gx5, dims = step[2]
                oh, ow, ph, pw = dims
                if gx5 is None:
                    prof.stop(step[-1], t0)
                    return  # layer 0: the input gradient is discarded
                gbits, gxbits = g.view(self._bits), gx5.view(self._bits)
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
                g = g.reshape((k, n) + step[2])
            prof.stop(step[-1], t0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"ReplicaKernel({self.network.name!r}, kmax={self.kmax}, "
            f"batch={self.batch}, dtype={self.dtype.name}, lanes={self.lanes})"
        )
