"""Fused vs unfused operator chains over a CHL-like sparse raster.

The workload mirrors the paper's chlorophyll (CHL) queries: a sparse
2-D raster (most cells are land/cloud nulls), restricted to a region,
filtered on value, and rescaled — a 4-operator chunk-local chain. The
ArrayRDD operators compile the chain to one ``map_partitions`` pass per
chunk; the unfused reference runs the same chain as one engine pass per
operator, rebuilding every chunk through :class:`~repro.core.Chunk`'s
own methods each time (``and_mask``, ``filter``, ``map_values``).

Run as a script to emit the JSON artifact::

    PYTHONPATH=src python benchmarks/test_fusion_chains.py fusion.json
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

if __package__ in (None, ""):
    # allow `python benchmarks/test_fusion_chains.py` (the CI smoke
    # job) as well as `pytest benchmarks/`
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.harness import (
    fresh_context,
    print_table,
    write_trace_artifact,
)
from repro.bitmask import Bitmask
from repro.core import ArrayRDD, mapper

#: assert at least this speedup for the fused 4-op chain
SPEEDUP_TARGET = 1.5
REPEATS = 3

SHAPE = (1024, 1024)
CHUNK = (128, 128)
DENSITY = 0.25           # CHL-like: ~3/4 of cells are null
BOX = ((16, 16), (1000, 1000))


def _build_array(ctx) -> ArrayRDD:
    rng = np.random.default_rng(7)
    data = rng.random(SHAPE)
    valid = rng.random(SHAPE) < DENSITY
    arr = ArrayRDD.from_numpy(ctx, data, CHUNK, valid=valid)
    return arr.materialize()    # timings cover the chain, not ingestion


def _above(xs):
    return xs > 0.05


def _square(xs):
    return xs * xs


def _times_ten(xs):
    return xs * 10.0


def _chain(arr: ArrayRDD) -> ArrayRDD:
    """subarray → filter → map → scalar: 4 chunk-local operators."""
    return arr.subarray(*BOX).filter(_above).map_values(_square) * 10.0


class _RestrictToBox:
    """Unfused subarray: chunk-ID pruning, then ``Chunk.and_mask`` with
    the box's virtual bitmask for every chunk the box cuts."""

    def __init__(self, meta, lo, hi):
        self.meta = meta
        self.lo = lo
        self.hi = hi
        self.wanted = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))
        self.inside = frozenset(
            mapper.chunk_ids_fully_inside(meta, lo, hi))

    def __call__(self, _index, part):
        for chunk_id, chunk in part:
            if chunk_id not in self.wanted:
                continue
            if chunk_id in self.inside:
                yield chunk_id, chunk
                continue
            box = Bitmask.from_bools(mapper.range_mask_for_chunk(
                self.meta, chunk_id, self.lo, self.hi))
            restricted = chunk.and_mask(box)
            if restricted.valid_count > 0:
                yield chunk_id, restricted


def _unfused_chain(arr: ArrayRDD):
    """The same chain as one engine pass per operator."""
    rdd = arr.rdd.map_partitions_with_index(
        _RestrictToBox(arr.meta, *BOX), preserves_partitioning=True)
    rdd = rdd.map_values(lambda chunk: chunk.filter(_above)) \
             .filter(lambda kv: kv[1].valid_count > 0)
    rdd = rdd.map_values(lambda chunk: chunk.map_values(_square))
    return rdd.map_values(lambda chunk: chunk.map_values(_times_ten))


def _run_mode(fused: bool) -> dict:
    ctx = fresh_context(8)
    arr = _build_array(ctx)
    walls = []
    count = None
    label = None
    before = ctx.metrics.snapshot()
    for _ in range(REPEATS):
        if fused:
            out = _chain(arr)
            start = time.perf_counter()
            count = out.count_valid()
            label = out.rdd.name
        else:
            out = _unfused_chain(arr)
            start = time.perf_counter()
            count = out.map(lambda kv: kv[1].valid_count) \
                       .fold(0, lambda a, b: a + b)
            label = out.name
        walls.append(time.perf_counter() - start)
    delta = ctx.metrics.snapshot() - before
    return {
        "wall_s": min(walls),
        "count": count,
        "label": label,
        "tasks_launched": delta.tasks_launched,
        "stages_run": delta.stages_run,
        "kernels_fused": delta.kernels_fused,
        "fused_chunks_avoided": delta.fused_chunks_avoided,
    }


def run() -> dict:
    fused = _run_mode(True)
    eager = _run_mode(False)
    speedup = eager["wall_s"] / max(fused["wall_s"], 1e-9)
    artifact = {
        "shape": list(SHAPE),
        "chunk_shape": list(CHUNK),
        "density": DENSITY,
        "chain_ops": 4,
        "repeats": REPEATS,
        "speedup": speedup,
        "fused": fused,
        "eager": eager,
    }
    print_table(
        "fused vs eager 4-op chain (CHL-like raster)",
        ["mode", "wall", "tasks", "stages", "kernels fused",
         "chunk builds avoided", "pipeline"],
        [
            ["fused", f"{fused['wall_s']:.3f}s", fused["tasks_launched"],
             fused["stages_run"], fused["kernels_fused"],
             fused["fused_chunks_avoided"], fused["label"]],
            ["eager", f"{eager['wall_s']:.3f}s", eager["tasks_launched"],
             eager["stages_run"], eager["kernels_fused"],
             eager["fused_chunks_avoided"], eager["label"]],
            ["speedup", f"{speedup:.2f}x", "", "", "", "", ""],
        ],
    )
    return artifact


def test_fused_chain_speedup():
    artifact = run()
    fused, eager = artifact["fused"], artifact["eager"]
    assert fused["count"] == eager["count"]
    assert fused["label"].startswith("fused[")
    assert fused["tasks_launched"] <= eager["tasks_launched"]
    assert fused["kernels_fused"] >= 4
    assert fused["fused_chunks_avoided"] > 0
    assert eager["kernels_fused"] == 0
    assert artifact["speedup"] >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x from fusing a 4-op chain, "
        f"got {artifact['speedup']:.2f}x")


def _traced_run(json_path: str) -> dict:
    """One traced fused pass: the event-log artifact for ``repro trace``."""
    ctx = fresh_context(8, trace=True)
    arr = _build_array(ctx)
    ctx.tracer.clear()          # trace the chain, not ingestion
    _chain(arr).count_valid()
    return write_trace_artifact(ctx, json_path)


def main(json_path: str = None) -> dict:
    artifact = run()
    if json_path:
        artifact["trace"] = _traced_run(json_path)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
    print(json.dumps(artifact, indent=2))
    return artifact


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else None)
