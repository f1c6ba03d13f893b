"""Layer probes: each layer's public functions timed from outside.

Every probe runs on the same seeded probe inputs whatever the workload
(a 16-image SDSS-like cube cached on a private serial context, plus
synthetic buffers), so its row moves only when the layer's code does.
The one exception is ``scheduler.dispatch_us``, which round-trips no-op
tasks on the workload's own context and backend.

Each data-touching row reports the bytes it touched and its GB/s; the
report prints that next to ``host.memcpy_gbps`` (measured in the same
run), the buffer size and the host's last-level cache size, so a row
reads as a share of the memory bandwidth it could reach.
"""

from __future__ import annotations

import glob
import os
import statistics
import time

import numpy as np

from repro import ClusterContext
from repro.bitmask.popcount import Milestones, popcount_words_vectorized
from repro.core import Chunk, ChunkPlan
from repro.core.chunk_codec import probe_chunks
from repro.core.plan import FilterKernel, ScalarOpKernel
from repro.data import sdss_like
from repro.engine import HashPartitioner
from repro.engine.batches import (
    RecordBatch,
    combine_runs,
    group_indices_by_partition,
    pack_int_keys,
    pack_records,
)
from repro.engine.shm import SharedSegmentRegistry, leaked_segments, load_ref
from repro.engine.spill import decode_block, encode_block
from repro.engine.tracing import NULL_SPAN
from repro.matrix.offsets import csr_from_offsets
from repro.queries import load_spangle_dataset

MEMCPY_BYTES = 64 << 20
POPCOUNT_BYTES = 4 << 20
RANK_MASK_BITS = 1 << 20
RANK_QUERIES = 20_000
PROBE_IMAGES = 16
SMALL_RECORDS = 200_000
SMALL_KEYS = 50_000
CSR_BLOCK = 512
CSR_BLOCKS = 16
CSR_DENSITY = 0.014
DISPATCH_JOBS = 20
#: a probe repeats until it has run this long (and at least 5 times)
MIN_PROBE_S = 0.15
MAX_REPS = 200


def median_call_s(fn, min_time: float = MIN_PROBE_S) -> float:
    """Median wall time of one ``fn()`` call."""
    times = []
    total = 0.0
    while len(times) < 5 or (total < min_time and len(times) < MAX_REPS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        total += elapsed
    return statistics.median(times)


def llc_bytes() -> int:
    """Size of the highest-level CPU cache (0 when not exposed)."""
    best = (0, 0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(index, "size")) as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


class LayerProbes:
    """Runs every probe; ``rows`` maps a row name to
    ``(value, unit, bytes_touched, seconds_per_call)``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.rows = {}
        self.leaks = []

    def _span(self, name):
        if self.tracer is None:
            return NULL_SPAN
        return self.tracer.span(name, "bench.layer")

    def _row(self, name, value, unit, nbytes=None, seconds=None):
        self.rows[name] = (value, unit, nbytes, seconds)

    def _timed_row(self, name, seconds, nbytes, scale, unit):
        """A latency row plus its ``_bytes``/``_gbps`` companions."""
        self._row(name, seconds * scale, unit, nbytes, seconds)
        if nbytes:
            stem = name.rsplit("_", 1)[0]
            self._row(f"{stem}_bytes", nbytes, "B")
            self._row(f"{stem}_gbps", nbytes / seconds / 1e9, "GB/s")

    def run(self, tracer=None) -> dict:
        """Every probe but dispatch, each under one ``bench.layer`` span
        of ``tracer`` (when given)."""
        self.tracer = tracer
        rng = np.random.default_rng(self.seed)
        with self._span("host"):
            self.host()
        with self._span("bitmask"):
            self.bitmask(rng)
        with ClusterContext(num_executors=2) as ctx:
            scenes = sdss_like(PROBE_IMAGES, shape=(256, 256), bands=("u",),
                               objects_per_image=220, seed=self.seed)["u"]
            dataset = load_spangle_dataset(ctx, {"u": scenes}, (64, 64, 1))
            array = dataset.attribute("u").materialize()
            records = array.rdd.collect()
            partition = array.rdd.iterator(0)
            with self._span("chunk"):
                self.chunk([chunk for _cid, chunk in records])
            with self._span("plan"):
                self.plan(array)
            with self._span("optimizer"):
                self.optimizer(dataset)
            with self._span("shuffle"):
                self.shuffle(rng, records)
            with self._span("shm"):
                self.shm(partition)
            with self._span("spill"):
                self.spill(partition)
        with self._span("multiply"):
            self.multiply(rng)
        return self.rows

    # -- host ---------------------------------------------------------

    def host(self):
        src = np.ones(MEMCPY_BYTES // 8)
        dst = np.empty_like(src)
        seconds = median_call_s(lambda: np.copyto(dst, src))
        self._row("host.memcpy_gbps", MEMCPY_BYTES / seconds / 1e9, "GB/s",
                  MEMCPY_BYTES, seconds)
        self._row("host.memcpy_bytes", MEMCPY_BYTES, "B")
        self._row("host.llc_bytes", llc_bytes(), "B")

    # -- bitmask --------------------------------------------------------

    def bitmask(self, rng):
        words = rng.integers(0, np.iinfo(np.int64).max,
                             POPCOUNT_BYTES // 8).astype(np.uint64)
        seconds = median_call_s(lambda: popcount_words_vectorized(words))
        self._row("bitmask.popcount_gbps", words.nbytes / seconds / 1e9,
                  "GB/s", words.nbytes, seconds)
        self._row("bitmask.popcount_bytes", words.nbytes, "B")

        mask_words = words[:RANK_MASK_BITS // 64]
        milestones = Milestones(mask_words)
        positions = rng.integers(0, RANK_MASK_BITS, RANK_QUERIES).tolist()
        stride = milestones.stride_words
        scanned = sum((pos // 64) % stride + 1 for pos in positions) * 8

        def ranks():
            for pos in positions:
                milestones.rank(mask_words, pos)

        seconds = median_call_s(ranks) / RANK_QUERIES
        self._timed_row("bitmask.rank_ns", seconds,
                        scanned // RANK_QUERIES, 1e9, "ns")

    # -- chunk ------------------------------------------------------------

    def chunk(self, chunks):
        stored = sum(chunk.nbytes for chunk in chunks)
        decoded = [chunk.indices() for chunk in chunks]
        seconds = median_call_s(
            lambda: [chunk.indices() for chunk in chunks]) / len(chunks)
        index_bytes = sum(offsets.nbytes for offsets in decoded)
        self._timed_row("chunk.decode_us", seconds,
                        (stored + index_bytes) // len(chunks), 1e6, "us")

        dense = [(chunk.to_dense(0.0), chunk.valid_bools())
                 for chunk in chunks]
        seconds = median_call_s(
            lambda: [Chunk.from_dense(v, ok) for v, ok in dense]) / len(chunks)
        dense_bytes = sum(v.nbytes + ok.nbytes for v, ok in dense)
        self._timed_row("chunk.encode_us", seconds,
                        (dense_bytes + stored) // len(chunks), 1e6, "us")

        packed = probe_chunks(chunks, byte_limit=None)
        seconds = median_call_s(
            lambda: probe_chunks(chunks, byte_limit=None).unpack())
        self._row("chunk.codec_mbps", packed.nbytes / seconds / 1e6, "MB/s",
                  packed.nbytes, seconds)
        self._row("chunk.codec_bytes", packed.nbytes, "B")

    # -- plan ---------------------------------------------------------------

    def plan(self, array):
        base = array.rdd
        plan = ChunkPlan().then(FilterKernel(lambda xs: xs > 2.0)) \
            .then(ScalarOpKernel(np.multiply, 2.0, name="mul"))
        compiled = plan.compile(base)
        parts = range(base.num_partitions)
        nbytes = sum(chunk.nbytes for part in parts
                     for _cid, chunk in base.iterator(part))
        seconds = median_call_s(
            lambda: [compiled.iterator(part) for part in parts])
        self._timed_row("plan.pass_ms", seconds, nbytes, 1e3, "ms")

    # -- optimizer ----------------------------------------------------------

    def optimizer(self, dataset):
        """``optimize()`` + ``lower_to_rdd()``: the first ``.rdd`` read of
        a fresh box query (Q1/Q3/Q4 shapes) compiles and memoizes."""
        lo = (64, 64, 0)
        hi = (191, 191, PROBE_IMAGES - 1)

        def queries():
            boxed = dataset.subarray(lo, hi)
            filtered = boxed.filter("u", lambda xs: xs > 2.0).evaluate("u")
            return (boxed.evaluate("u"), filtered,
                    filtered.filter(lambda xs: xs > 5.0))

        def lower():
            for query in queries():
                query.rdd  # noqa: B018 - the property read compiles

        seconds = median_call_s(lower) / 3
        self._row("optimizer.plan_ms", seconds * 1e3, "ms", None, seconds)

    # -- shuffle -------------------------------------------------------------

    def _shuffle_rows(self, kind, records, pack, merge):
        partitioner = HashPartitioner(2)
        batch = pack(records)

        def partition():
            pids = partitioner.partition_array(batch.keys)
            return [RecordBatch(batch.keys[idx], batch.values.gather(idx))
                    for idx in group_indices_by_partition(pids, 2)]

        buckets = partition()
        nbytes = batch.nbytes
        for step, fn in (("pack", lambda: pack(records)),
                         ("partition", partition),
                         ("merge", lambda: merge(buckets))):
            seconds = median_call_s(fn)
            self._row(f"shuffle.{kind}.{step}_ms", seconds * 1e3, "ms",
                      nbytes, seconds)
            self._row(f"shuffle.{kind}.{step}_gbps", nbytes / seconds / 1e9,
                      "GB/s")
        self._row(f"shuffle.{kind}.bytes", nbytes, "B")

    def shuffle(self, rng, chunk_records):
        keys = rng.integers(0, SMALL_KEYS, SMALL_RECORDS).tolist()
        values = rng.random(SMALL_RECORDS).tolist()
        small = list(zip(keys, values))

        def merge_sum(buckets):
            """Reduce side: concatenate the arriving batches, fold keys."""
            out_keys, out_data = combine_runs(
                np.concatenate([b.keys for b in buckets]),
                np.concatenate([b.values.data for b in buckets]), "sum")
            return list(zip(out_keys.tolist(), out_data.tolist()))

        self._shuffle_rows("small", small, pack_records, merge_sum)

        def pack_chunks(records):
            """Chunk values exceed the shuffle's per-record packing limit;
            pack them with the unbounded chunk codec."""
            return RecordBatch(pack_int_keys(records), probe_chunks(
                [value for _key, value in records], byte_limit=None))

        def merge_chunks(buckets):
            return [record for b in buckets for record in b.records()]

        self._shuffle_rows("chunk", chunk_records, pack_chunks, merge_chunks)

    # -- shm -----------------------------------------------------------------

    def shm(self, partition):
        registry = SharedSegmentRegistry()
        keys = iter(range(1 << 30))
        handles = []

        def export():
            handles.append(registry.export_block(("probe", next(keys)),
                                                 partition))

        # five of each: every export maps a fresh segment of the block
        try:
            export_s = median_call_s(export, min_time=0)
            pending = iter(list(handles))
            attach_s = median_call_s(lambda: load_ref(next(pending)),
                                     min_time=0)
            nbytes = handles[0].nbytes
        finally:
            registry.shutdown()
        leaked = leaked_segments(registry.prefix)
        if leaked:
            self.leaks.append(f"shm probe left {len(leaked)} segments")
        self._timed_row("shm.export_us", export_s, nbytes, 1e6, "us")
        self._timed_row("shm.attach_us", attach_s, nbytes, 1e6, "us")

    # -- spill ---------------------------------------------------------------

    def spill(self, partition):
        encoded = encode_block(partition)
        encode_s = median_call_s(lambda: encode_block(partition))
        decode_s = median_call_s(lambda: decode_block(encoded))
        self._row("spill.encode_mbps", len(encoded) / encode_s / 1e6, "MB/s",
                  len(encoded), encode_s)
        self._row("spill.decode_mbps", len(encoded) / decode_s / 1e6, "MB/s",
                  len(encoded), decode_s)
        self._row("spill.block_bytes", len(encoded), "B")

    # -- multiply -------------------------------------------------------

    def multiply(self, rng):
        cells = CSR_BLOCK * CSR_BLOCK
        blocks = []
        for _ in range(CSR_BLOCKS):
            offsets = np.flatnonzero(rng.random(cells) < CSR_DENSITY)
            blocks.append((offsets, rng.random(offsets.size)))
        nbytes = sum(2 * (off.nbytes + val.nbytes) for off, val in blocks)
        seconds = median_call_s(
            lambda: [csr_from_offsets(off, val, CSR_BLOCK)
                     for off, val in blocks]) / CSR_BLOCKS
        self._timed_row("multiply.csr_build_ms", seconds,
                        nbytes // CSR_BLOCKS, 1e3, "ms")

    # -- scheduler ------------------------------------------------------

    def dispatch(self, ctx):
        """Round trip of no-op tasks on the workload's backend."""
        tasks = ctx.num_executors
        rdd = ctx.parallelize(list(range(tasks)), tasks)
        times = []
        for _ in range(DISPATCH_JOBS):
            start = time.perf_counter()
            rdd.map_partitions(lambda part: part).count()
            times.append((time.perf_counter() - start) / tasks)
        seconds = statistics.median(times)
        self._row("scheduler.dispatch_us", seconds * 1e6, "us", None, seconds)
