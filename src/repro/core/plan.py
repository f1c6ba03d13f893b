"""ChunkPlan: the chunk-kernel operator layer (the plan algebra).

Every narrow ArrayRDD operator — ``map_values``, ``filter``,
``subarray``, scalar arithmetic, ``repack`` — is a chunk-local rewrite
of ``(payload, bitmask)``. Operators *append a kernel* to a pending
:class:`ChunkPlan`, and when an action (or a wide operator, or
``cache()``) forces evaluation the whole chain compiles to **one**
``map_partitions`` pass: at most one decode, one kernel pipeline over
the kept cells and their compact values, one encode per surviving chunk.

Decoding is lazy. A record enters the pipeline as its undecoded chunk;
the first kernel that needs values decodes it. Chunks pruned by ID
(Fig. 4a: a chain holding box restrictions skips every record outside
their wanted sets before its source runs) and chunks lying fully inside
a box never decode at all, and a chunk no kernel changed leaves the
pass as the very same object.

The result is byte-identical to applying :class:`~repro.core.chunk
.Chunk`'s own methods once per operator — ``map_values`` preserves the
input mode, ``filter``/``and_mask``/``repack`` re-apply
:func:`choose_mode` on the new density — and the final encode goes
through the same :func:`~repro.core.chunk._build_from_bools`
construction those methods use.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask.popcount import rank_counts
from repro.core import mapper
from repro.core.chunk import Chunk, ChunkMode, choose_mode, \
    _build_from_bools
from repro.errors import ArrayError

__all__ = [
    "ChunkPlan",
    "ChunkSource",
    "DropEmpty",
    "ElementwiseSource",
    "FilterKernel",
    "FoldedScalarKernel",
    "MapValuesKernel",
    "MaskAndKernel",
    "MaskApplySource",
    "RepackKernel",
    "ScalarOpKernel",
]


# ----------------------------------------------------------------------
# kernel state: one chunk, decoded on demand
# ----------------------------------------------------------------------

class KernelState:
    """A chunk mid-pipeline.

    Until :meth:`decode` runs, the state is only its source ``chunk``
    (``values`` is None). Decoded, it holds ``values`` — the kept cells'
    values in ascending offset order — and the kept cells themselves,
    as a keep-mask (one bool per cell, what decoding and the final
    encode work in) or as ascending offsets (what the filter and box
    kernels index with, cheaper than boolean indexing), whichever the
    last kernel produced; each converts to the other on first use.

    ``rebuilt`` tracks whether any kernel changed the chunk (if not, the
    original ``chunk`` object is passed through untouched).
    ``eager_builds`` counts how many intermediate Chunk constructions a
    one-operator-at-a-time evaluation would have performed for the same
    record — the fusion savings counter.
    """

    __slots__ = ("num_cells", "chunk", "values", "mode", "_keep",
                 "_offsets", "rebuilt", "dropped", "eager_builds",
                 "repacked")

    def __init__(self, num_cells, mode, chunk=None, keep=None,
                 values=None):
        self.num_cells = num_cells
        self.mode = mode
        self.chunk = chunk
        self.values = values
        self._keep = keep
        self._offsets = None
        self.rebuilt = False
        self.dropped = False
        self.eager_builds = 0
        self.repacked = 0

    @classmethod
    def of(cls, chunk) -> "KernelState":
        """An undecoded state for ``chunk``."""
        return cls(chunk.num_cells, chunk.mode, chunk=chunk)

    def decode(self) -> None:
        """Unpack the source chunk's cells and values (once)."""
        if self.values is None:
            chunk = self.chunk
            self._keep = chunk.valid_bools()
            self.values = chunk.payload[self._keep] \
                if chunk.mode is ChunkMode.DENSE else chunk.payload

    @property
    def keep(self) -> np.ndarray:
        if self._keep is None:
            self._keep = np.zeros(self.num_cells, dtype=bool)
            self._keep[self._offsets] = True
        return self._keep

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            self._offsets = np.flatnonzero(self._keep)
        return self._offsets

    @property
    def valid_count(self) -> int:
        if self.values is None:
            return self.chunk.valid_count
        return self.values.size

    def shrink(self, survivors) -> None:
        """Keep only the ``survivors`` of the current values; re-apply
        the density policy and drop the chunk if nothing is left."""
        self._offsets = self.offsets[survivors]
        self._keep = None
        self.values = self.values[survivors]
        count = self.values.size
        self.mode = choose_mode(count / self.num_cells
                                if self.num_cells else 0.0)
        self.rebuilt = True
        self.eager_builds += 1
        if count == 0:
            self.dropped = True

    def replace_values(self, new_values, builds: int) -> None:
        new_values = np.asarray(new_values)
        if new_values.shape != self.values.shape:
            raise ArrayError(
                "map_values function must preserve the value count"
            )
        self.values = new_values
        self.rebuilt = True
        self.eager_builds += builds


def _values_where(chunk, keep) -> np.ndarray:
    """Values of ``chunk`` at the cells ``keep`` marks (all valid), in
    ascending offset order."""
    if chunk.mode is ChunkMode.DENSE:
        return chunk.payload[keep]
    # payload order == ascending offsets, so indexing the keep mask by
    # the valid offsets selects the surviving slots
    return chunk.payload[keep[chunk.indices()]]


def _encode(state: KernelState) -> Chunk:
    """Pack a rebuilt state into a Chunk — the single encode of the
    fused pass, via the same construction the Chunk methods use."""
    state.decode()
    return _build_from_bools(state.num_cells, state.keep, state.values,
                             state.mode)


# ----------------------------------------------------------------------
# sources: how a record enters the kernel pipeline
# ----------------------------------------------------------------------

class ChunkSource:
    """Default source: the record value is already a Chunk."""

    #: shown in the fused pipeline label (None = invisible pass-through)
    label = None

    def begin(self, chunk_id, chunk) -> KernelState:
        return KernelState.of(chunk)


class MaskApplySource(ChunkSource):
    """Source for ``(Chunk, Bitmask)`` join pairs: MaskRDD reconciliation.

    Replicates :meth:`Chunk.and_mask` — including its return-self
    fast path when the mask removes nothing, which here leaves the chunk
    undecoded — but keeps a restricted result decoded so downstream
    kernels fuse into the same pass.
    """

    label = "apply_mask"

    def begin(self, chunk_id, pair) -> KernelState:
        chunk, other_mask = pair
        if other_mask.num_bits != chunk.num_cells:
            raise ArrayError(
                f"mask length {other_mask.num_bits} != chunk cells "
                f"{chunk.num_cells}"
            )
        flat = chunk.flat_mask()
        combined = flat & other_mask
        if combined == flat:       # nothing was masked out
            return KernelState.of(chunk)
        keep = combined.to_bools()
        values = _values_where(chunk, keep)
        state = KernelState(chunk.num_cells,
                            choose_mode(values.size / chunk.num_cells),
                            keep=keep, values=values)
        state.rebuilt = True
        state.eager_builds = 1
        return state


class ElementwiseSource(ChunkSource):
    """Source for joined chunk pairs: the merge step of ``combine``.

    Replicates :meth:`Chunk.elementwise` (and-join: AND the bitmasks,
    compute only surviving pairs; or-join: OR the bitmasks with ``fill``
    standing in for missing cells) but keeps the result decoded so
    trailing kernels — ``DropEmpty``, a nonzero filter, scalar ops —
    run in the same pass.
    """

    def __init__(self, op, how: str, fill, num_cells: int, dtype):
        self.op = op
        self.how = how
        self.fill = fill
        self.num_cells = num_cells
        self.dtype = dtype
        self.label = f"combine_{how}"

    def begin(self, chunk_id, pair) -> KernelState:
        left, right = pair
        if left is None:
            left = Chunk.empty(self.num_cells, dtype=self.dtype)
        if right is None:
            right = Chunk.empty(self.num_cells, dtype=self.dtype)
        if left.num_cells != right.num_cells:
            raise ArrayError(
                f"chunk size mismatch: {left.num_cells} vs "
                f"{right.num_cells}"
            )
        if self.how == "and":
            keep = (left.flat_mask() & right.flat_mask()).to_bools()
            result = self.op(_values_where(left, keep),
                             _values_where(right, keep))
        else:
            keep = (left.flat_mask() | right.flat_mask()).to_bools()
            result = self.op(left.to_dense(self.fill)[keep],
                             right.to_dense(self.fill)[keep])
        count = int(np.count_nonzero(keep))
        density = count / left.num_cells if left.num_cells else 0.0
        state = KernelState(left.num_cells, choose_mode(density),
                            keep=keep, values=result)
        state.rebuilt = True
        state.eager_builds = 1
        return state


# ----------------------------------------------------------------------
# kernels: one chunk-local operator each
# ----------------------------------------------------------------------

class MapValuesKernel:
    """Vectorized function over the valid values; mode is preserved."""

    label = "map"

    def __init__(self, func):
        self.func = func

    def apply(self, chunk_id, state: KernelState) -> None:
        state.decode()
        state.replace_values(self.func(state.values), 1)


class ScalarOpKernel:
    """Scalar arithmetic (``a * 2``, ``2 ** a``, ...) as a fusable kernel."""

    def __init__(self, op, scalar, reflected: bool = False,
                 name: str = None):
        self.op = op
        self.scalar = scalar
        self.reflected = reflected
        self.label = f"scalar_{name or getattr(op, '__name__', 'op')}"

    def apply(self, chunk_id, state: KernelState) -> None:
        state.decode()
        if self.reflected:
            new_values = self.op(self.scalar, state.values)
        else:
            new_values = self.op(state.values, self.scalar)
        state.replace_values(new_values, 1)


class FoldedScalarKernel:
    """Several adjacent scalar ops applied in one kernel dispatch.

    ``stages`` is a tuple of ``(op, scalar, reflected, name)`` applied
    strictly in order — the same arithmetic sequence the individual
    :class:`ScalarOpKernel` chain would perform, so the fold is
    bit-identical; it only saves the per-kernel dispatch and shape
    checks between stages. Produced by the logical optimizer's
    adjacent-scalar folding rule.
    """

    def __init__(self, stages):
        self.stages = tuple(stages)
        names = "+".join(stage[3] for stage in self.stages)
        self.label = f"fold[{names}]"

    def apply(self, chunk_id, state: KernelState) -> None:
        state.decode()
        values = state.values
        for op, scalar, reflected, _name in self.stages:
            if reflected:
                values = op(scalar, values)
            else:
                values = op(values, scalar)
        state.replace_values(values, len(self.stages))


class FilterKernel:
    """Invalidate cells failing a vectorized predicate; re-applies the
    density policy and drops chunks left empty."""

    label = "filter"

    def __init__(self, predicate):
        self.predicate = predicate

    def apply(self, chunk_id, state: KernelState) -> None:
        state.decode()
        survivors = np.asarray(self.predicate(state.values), dtype=bool)
        if survivors.shape != state.values.shape:
            raise ArrayError(
                "filter predicate must return one bool per value")
        state.shrink(survivors)


class MaskAndKernel:
    """Subarray restriction: AND with the virtual bitmask of a box.

    Both chunk-ID sets are computed once, on the driver: chunks outside
    ``wanted`` are pruned (a metadata check, no scan — the compiled pass
    skips them before they even decode), chunks in ``inside`` lie fully
    inside the box and pass through undecoded, and — like
    :meth:`Chunk.and_mask` — a chunk whose cells all survive is not
    rebuilt.
    """

    label = "mask_and"

    def __init__(self, meta, lo, hi):
        self.meta = meta
        self.lo = lo
        self.hi = hi
        self.wanted = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))
        self.inside = frozenset(
            mapper.chunk_ids_fully_inside(meta, lo, hi))

    def apply(self, chunk_id, state: KernelState) -> None:
        if chunk_id not in self.wanted:
            state.dropped = True
            return
        if chunk_id in self.inside:
            return
        inside = mapper.range_mask_for_chunk(self.meta, chunk_id,
                                             self.lo, self.hi)
        state.decode()
        survivors = inside[state.offsets]
        if survivors.all():        # nothing was masked out
            return
        state.shrink(survivors)


class RepackKernel:
    """Re-apply the density policy to each chunk's *current* density.

    The plan-level form of :meth:`Chunk.repack`: upstream kernels (a
    filter, a mask AND) may leave a chunk far from the mode it was
    built in; this kernel retargets the encode without an extra pass —
    it only flips ``state.mode``, so in a fused pipeline repacking is
    free. Chunks already in the policy's mode pass through untouched.
    """

    label = "repack"

    def apply(self, chunk_id, state: KernelState) -> None:
        if state.num_cells == 0:
            return
        target = choose_mode(state.valid_count / state.num_cells)
        if target is state.mode:
            return
        state.mode = target
        state.rebuilt = True
        state.eager_builds += 1
        state.repacked += 1


class DropEmpty:
    """Drop chunks with no valid cell (the memory-reduction policy).

    Compiled with ``preserves_partitioning=True``: chunk IDs never move,
    so the partitioner survives the drop.
    """

    label = "drop_empty"

    def apply(self, chunk_id, state: KernelState) -> None:
        if state.valid_count == 0:
            state.dropped = True


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

_CHUNK_SOURCE = ChunkSource()


class _CompiledPlanPass:
    """The lowered form of a plan: one callable running the whole
    kernel chain over a partition.

    A module-level class (not a closure) so compiled passes pickle by
    construction when a task ships to a worker process. The driver-side
    tracer and metrics references are dropped from the pickled state
    (``__getstate__``) and the worker's context-binding walk re-attaches
    its own via :meth:`bind_engine_context`, so per-pass counters and
    ``plan`` spans flow through the worker's registries and merge back
    with the task reply.
    """

    def __init__(self, source, kernels, labels, pipeline, tracer,
                 metrics):
        self.source = source
        self.kernels = kernels
        self.labels = labels
        self.pipeline = pipeline
        self.tracer = tracer
        self.metrics = metrics
        # every box restriction in the chain drops chunks outside its
        # wanted set, so records outside their intersection are skipped
        # before the source even looks at them
        self.wanted = None
        for kernel in kernels:
            if isinstance(kernel, MaskAndKernel):
                self.wanted = kernel.wanted if self.wanted is None \
                    else self.wanted & kernel.wanted

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["tracer"] = None
        state["metrics"] = None
        return state

    def bind_engine_context(self, context) -> None:
        self.tracer = getattr(context, "tracer", None)
        self.metrics = getattr(context, "metrics", None)

    def __call__(self, _index, part):
        source = self.source
        kernels = self.kernels
        wanted = self.wanted
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            span = tracer.start(self.pipeline, "plan", partition=_index,
                                kernels=list(self.labels))
            ranks_before = rank_counts()
        chunks_in = 0
        chunk_ids = []
        mode_counts = {}
        mode_bytes = {}
        avoided = 0
        repacked = 0
        for chunk_id, value in part:
            chunks_in += 1
            if tracing:
                chunk_ids.append(chunk_id)
            if wanted is not None and chunk_id not in wanted:
                continue
            state = source.begin(chunk_id, value)
            for kernel in kernels:
                kernel.apply(chunk_id, state)
                if state.dropped:
                    break
            repacked += state.repacked
            if state.dropped:
                avoided += state.eager_builds
                continue
            if state.rebuilt:
                avoided += state.eager_builds - 1
                out = chunk_id, _encode(state)
            else:
                avoided += state.eager_builds
                out = chunk_id, state.chunk
            if tracing:
                mode = out[1].mode.value
                mode_counts[mode] = mode_counts.get(mode, 0) + 1
                mode_bytes[mode] = (mode_bytes.get(mode, 0)
                                    + int(out[1].payload.nbytes))
            yield out
        if metrics is not None and avoided:
            metrics.record_fused_chunks_avoided(avoided)
        if metrics is not None and repacked:
            metrics.record_repack(repacked)
        if tracing:
            chunks_out = sum(mode_counts.values())
            attrs = {"chunks_in": chunks_in,
                     "chunks_out": chunks_out,
                     "chunk_builds_avoided": avoided,
                     "chunk_ids": [list(cid) if isinstance(cid, tuple)
                                   else cid for cid in chunk_ids]}
            if repacked:
                attrs["chunks_repacked"] = repacked
            for mode, count in mode_counts.items():
                attrs[f"chunks_{mode}"] = count
                attrs[f"payload_bytes_{mode}"] = mode_bytes[mode]
            ranks_after = rank_counts()
            for name, before in ranks_before.items():
                delta = ranks_after[name] - before
                if delta:
                    attrs[name] = delta
            span.set(**attrs)
            tracer.finish(span)


class ChunkPlan:
    """An immutable chain of chunk kernels over an optional source.

    ``then(kernel)`` extends the chain (returning a new plan);
    ``compile(base_rdd, metrics)`` lowers the whole chain to a single
    ``map_partitions`` pass named after its pipeline
    (``fused[filter→map→mask_and]``), so the scheduler runs the chain
    as one task per partition and ``explain`` shows the fusion.
    """

    __slots__ = ("source", "kernels")

    def __init__(self, source: ChunkSource = None, kernels=()):
        self.source = source if source is not None else _CHUNK_SOURCE
        self.kernels = tuple(kernels)

    @classmethod
    def identity(cls) -> "ChunkPlan":
        return cls()

    @property
    def is_identity(self) -> bool:
        return self.source is _CHUNK_SOURCE and not self.kernels

    def then(self, kernel) -> "ChunkPlan":
        return ChunkPlan(self.source, self.kernels + (kernel,))

    def stage_labels(self) -> list:
        labels = [self.source.label] if self.source.label else []
        labels.extend(kernel.label for kernel in self.kernels)
        return labels

    def label(self) -> str:
        labels = self.stage_labels()
        if len(labels) == 1:
            return labels[0]
        return "fused[" + "→".join(labels) + "]"

    def compile(self, base_rdd, metrics=None):
        """Lower the plan to one narrow ``map_partitions`` pass.

        When the owning context traces, every executed pass opens a
        ``plan`` span under the running task, annotated with the fused
        kernel labels, per-chunk-mode output counts and payload bytes,
        and the bitmask rank queries the pass issued (a thread-local
        before/after diff of :func:`repro.bitmask.rank_counts`, so the
        attribution is exact even under the threaded scheduler).
        """
        if self.is_identity:
            return base_rdd
        labels = self.stage_labels()
        if metrics is not None and len(labels) >= 2:
            metrics.record_kernels_fused(len(labels))
        run = _CompiledPlanPass(self.source, self.kernels, labels,
                                self.label(),
                                getattr(base_rdd.context, "tracer", None),
                                metrics)
        compiled = base_rdd.map_partitions_with_index(
            run, preserves_partitioning=True)
        return compiled.rename(self.label())

    def __repr__(self) -> str:
        return f"ChunkPlan({self.label() if not self.is_identity else 'id'})"
