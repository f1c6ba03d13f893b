"""Fusion-equivalence tests for the ChunkPlan kernel layer.

The contract under test: a chain of chunk-local operators compiled into
one fused ``map_partitions`` pass must be *byte-identical* — same chunk
IDs, same modes, same payload bytes, same bitmask words — to applying
:class:`~repro.core.chunk.Chunk`'s own methods (``filter``,
``map_values``, ``and_mask`` with the box's range bitmask, ``repack``,
``elementwise``) once per operator to every record, across dense,
sparse, and super-sparse inputs and on every backend.
"""

import numpy as np
import pytest

from repro.bitmask import Bitmask, HierarchicalBitmask
from repro.core import ArrayRDD, Chunk, ChunkMode, SpangleDataset
from repro.core import mapper
from repro.engine import ClusterContext
from repro.engine.explain import fused_pipelines, stage_plan


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


#: (label, expected mode, shape, chunk shape, density) — densities sit
#: on the three sides of the mode policy (0.5 and 1/256 thresholds)
MODE_CASES = [
    ("dense", ChunkMode.DENSE, (40, 40), (16, 16), 0.9),
    ("sparse", ChunkMode.SPARSE, (40, 40), (16, 16), 0.2),
    ("super_sparse", ChunkMode.SUPER_SPARSE, (64, 64), (32, 32), 0.002),
]


def make_array(ctx, shape, chunk, density, seed):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    valid = rng.random(shape) < density
    return ArrayRDD.from_numpy(ctx, data, chunk, valid=valid)


def restrict_chunk(meta, lo, hi):
    """The per-record subarray oracle: AND with the box's bitmask."""
    def restrict(chunk_id, chunk):
        box = mapper.range_mask_for_chunk(meta, chunk_id, lo, hi)
        return chunk.and_mask(Bitmask.from_bools(box))
    return restrict


def random_chain(meta, rng):
    """A random chain of 1-6 mixed chunk-local operators.

    Each step is ``(name, on_array, on_chunk)``: the ArrayRDD operator
    and its per-record oracle built from Chunk's own methods.
    Predicates are scale-free (they look at value digits, not
    magnitudes) so they keep a stable fraction of cells no matter how
    earlier scalar ops shifted the values.
    """
    ops = []
    for _ in range(rng.integers(1, 7)):
        kind = rng.choice(["filter", "map", "subarray", "scalar"])
        if kind == "filter":
            modulus = int(rng.integers(3, 6))

            def pred(xs, m=modulus):
                return (np.floor(np.abs(xs) * 1e5) % m) > 0
            ops.append(("filter",
                        lambda a, p=pred: a.filter(p),
                        lambda cid, c, p=pred: c.filter(p)))
        elif kind == "map":
            shift = float(rng.uniform(-1, 1))

            def func(xs, s=shift):
                return xs * 0.5 + s
            ops.append(("map",
                        lambda a, f=func: a.map_values(f),
                        lambda cid, c, f=func: c.map_values(f)))
        elif kind == "subarray":
            lo = tuple(int(rng.integers(0, n // 2)) for n in meta.shape)
            hi = tuple(int(rng.integers(n // 2, n)) for n in meta.shape)
            ops.append(("subarray",
                        lambda a, lo=lo, hi=hi: a.subarray(lo, hi),
                        restrict_chunk(meta, lo, hi)))
        else:
            scalar = float(rng.uniform(0.5, 2.0))
            dunder = rng.choice(["mul", "radd", "rsub", "div"])
            apply = {
                "mul": lambda a, s=scalar: a * s,
                "radd": lambda a, s=scalar: s + a,
                "rsub": lambda a, s=scalar: s - a,
                "div": lambda a, s=scalar: a / s,
            }[dunder]
            ops.append((f"scalar_{dunder}", apply,
                        lambda cid, c, f=apply: c.map_values(f)))
    return ops


def oracle_records(records, steps):
    """Apply per-record Chunk-method steps one operator at a time,
    dropping every chunk an operator leaves empty."""
    out = []
    for chunk_id, chunk in records:
        for step in steps:
            chunk = step(chunk_id, chunk)
            if chunk.valid_count == 0:
                break
        else:
            out.append((chunk_id, chunk))
    return out


def assert_byte_identical(fused, want_records):
    fused_chunks = dict(fused.rdd.collect())
    want_chunks = dict(want_records)
    assert fused_chunks.keys() == want_chunks.keys()
    for chunk_id, got in fused_chunks.items():
        want = want_chunks[chunk_id]
        assert got.mode is want.mode, chunk_id
        assert got.num_cells == want.num_cells
        assert type(got.mask) is type(want.mask)
        assert got.payload.dtype == want.payload.dtype
        assert got.payload.tobytes() == want.payload.tobytes(), chunk_id
        assert np.array_equal(got.flat_mask().words,
                              want.flat_mask().words), chunk_id


def check_random_chain(ctx, mode, shape, chunk, density, seed):
    arr = make_array(ctx, shape, chunk, density, seed=seed)
    records = arr.rdd.collect()
    assert mode in {c.mode for _, c in records}  # really this mode

    rng = np.random.default_rng(1000 + seed)
    ops = random_chain(arr.meta, rng)

    fused = arr
    for _name, on_array, _on_chunk in ops:
        fused = on_array(fused)
    want = oracle_records(records, [on_chunk for *_, on_chunk in ops])

    assert fused.count_valid() == sum(c.valid_count for _, c in want)
    assert_byte_identical(fused, want)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize(
        "label,mode,shape,chunk,density", MODE_CASES,
        ids=[case[0] for case in MODE_CASES])
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_matches_eager(self, ctx, label, mode, shape, chunk,
                                 density, seed):
        check_random_chain(ctx, mode, shape, chunk, density, seed)

    def test_chain_records_no_more_tasks_than_eager(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=3)
        arr.materialize()

        def chain(a):
            return (a.subarray((2, 2), (37, 37))
                     .filter(lambda xs: xs > 0.1)
                     .map_values(np.sqrt) * 2.0)

        before = ctx.metrics.snapshot()
        fused_count = chain(arr).count_valid()
        fused_delta = ctx.metrics.snapshot() - before

        # the unfused reference: one engine pass per operator, each
        # rebuilding every chunk through Chunk's own methods
        steps = [restrict_chunk(arr.meta, (2, 2), (37, 37)),
                 lambda cid, c: c.filter(lambda xs: xs > 0.1),
                 lambda cid, c: c.map_values(np.sqrt),
                 lambda cid, c: c.map_values(lambda xs: xs * 2.0)]
        unfused = arr.rdd
        for step in steps:
            unfused = unfused.map_partitions(
                lambda part, step=step: oracle_records(part, [step]),
                preserves_partitioning=True)
        before = ctx.metrics.snapshot()
        eager_count = unfused.map(lambda kv: kv[1].valid_count) \
                             .fold(0, lambda a, b: a + b)
        eager_delta = ctx.metrics.snapshot() - before

        assert fused_count == eager_count
        # the fused chain is one narrow pass: a single stage, one task
        # per partition, and never more tasks than the unfused chain
        assert fused_delta.stages_run == 1
        assert fused_delta.tasks_launched == arr.rdd.num_partitions
        assert fused_delta.tasks_launched <= eager_delta.tasks_launched
        # the fusion counters fire only on the fused path
        assert fused_delta.kernels_fused == 4
        assert fused_delta.fused_chunks_avoided > 0
        assert eager_delta.kernels_fused == 0
        assert eager_delta.fused_chunks_avoided == 0


@pytest.fixture(scope="module", params=["thread", "process"])
def backend_ctx(request):
    if request.param == "thread":
        context = ClusterContext(num_executors=2, default_parallelism=4,
                                 use_threads=True)
    else:
        context = ClusterContext(num_executors=2, default_parallelism=4,
                                 backend="process")
    yield context
    context.shutdown()


class TestBackendEquivalence:
    """The random-chain oracle on the parallel backends: kernels run
    on pool threads or in worker processes, never on the driver."""

    @pytest.mark.parametrize(
        "label,mode,shape,chunk,density", MODE_CASES,
        ids=[case[0] for case in MODE_CASES])
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_matches_eager(self, backend_ctx, label, mode, shape,
                                 chunk, density, seed):
        check_random_chain(backend_ctx, mode, shape, chunk, density, seed)


class TestLazyDecode:
    """Chunks pruned by ID or fully inside the box never decode."""

    @pytest.fixture()
    def decoded(self, monkeypatch):
        seen = []
        for name in ("valid_bools", "indices"):
            real = getattr(Chunk, name)

            def counting(self, real=real):
                seen.append(self)
                return real(self)
            monkeypatch.setattr(Chunk, name, counting)
        return seen

    def _array(self, ctx):
        # 4x4 chunks of 16x16 cells, every chunk non-empty
        arr = make_array(ctx, (64, 64), (16, 16), 0.5, seed=4)
        arr.materialize()
        return arr, dict(arr.rdd.collect())

    @pytest.mark.parametrize("route", ["array", "repack", "dataset"])
    def test_aligned_box_decodes_no_chunk(self, ctx, decoded, route):
        arr, base = self._array(ctx)
        if route == "dataset":
            # the Q1 shape: a single-attribute dataset restricted by box
            out = SpangleDataset({"u": arr}).subarray(
                (16, 16), (47, 47)).evaluate("u")
        else:
            out = arr.subarray((16, 16), (47, 47))
            if route == "repack":
                out = out.repack()
        records = dict(out.rdd.collect())
        assert sorted(records) == [5, 6, 9, 10]
        assert decoded == []
        # chunks fully inside leave the pass as the very same objects
        for chunk_id, chunk in records.items():
            assert chunk is base[chunk_id]

    def test_unaligned_box_decodes_only_partial_chunks(self, ctx,
                                                       decoded):
        arr, base = self._array(ctx)
        out = arr.subarray((16, 16), (50, 47))
        records = dict(out.rdd.collect())
        # x-grid 1-2 lie fully inside; x-grid 3 (cells 48..63) is cut
        assert sorted(records) == [5, 6, 7, 9, 10, 11]
        by_object = {id(chunk): chunk_id for chunk_id, chunk in base.items()}
        assert {by_object[id(chunk)] for chunk in decoded} == {7, 11}
        for chunk_id in (5, 6, 9, 10):
            assert records[chunk_id] is base[chunk_id]


class TestPlanMechanics:
    def test_fused_label_in_stage_plan(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        out = (arr.filter(lambda xs: xs > 0.1)
                  .map_values(np.sqrt)
                  .subarray((0, 0), (31, 31)))
        assert out.rdd.name == "fused[filter→map→mask_and]"
        assert fused_pipelines(out.rdd) == ["fused[filter→map→mask_and]"]
        # one narrow stage, one fused hop over the base RDD
        plan_stages = stage_plan(out.rdd)
        assert len(plan_stages) == 1
        assert list(out.rdd.dependencies) == [arr.rdd]

    def test_plan_append_runs_no_job(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        before = ctx.metrics.snapshot()
        out = arr.filter(lambda xs: xs > 0.5).map_values(np.sqrt) * 3.0
        delta = ctx.metrics.snapshot() - before
        assert delta.jobs_run == 0
        assert out.count_valid() >= 0  # the action actually runs

    def test_cache_collapses_plan(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        out = arr.filter(lambda xs: xs > 0.2).map_values(np.sqrt)
        out.materialize()
        before = ctx.metrics.snapshot()
        count = out.count_valid()
        delta = ctx.metrics.snapshot() - before
        assert count > 0
        assert delta.cache_hits > 0   # the fused result was cached
        # operators after the barrier start a fresh plan on the
        # cached RDD instead of re-running the collapsed kernels
        deeper = out * 2.0
        assert deeper.rdd.name == "scalar_mul"

    def test_combine_keeps_partitioner(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.5, seed=1)
        b = make_array(ctx, (40, 40), (16, 16), 0.5, seed=2)
        combined = a.combine(b, np.add, how="and")
        assert combined.rdd.partitioner is not None
        before = ctx.metrics.snapshot()
        combined.combine(a, np.add, how="and").count_valid()
        delta = ctx.metrics.snapshot() - before
        assert delta.shuffles_performed == 0

    @pytest.mark.parametrize("how", ["and", "or"])
    def test_combine_matches_elementwise(self, ctx, how):
        a = make_array(ctx, (40, 40), (16, 16), 0.3, seed=1)
        b = make_array(ctx, (40, 40), (16, 16), 0.01, seed=2)
        fused = a.combine(b, np.subtract, how=how, fill=-1.0)
        left = dict(a.rdd.collect())
        right = dict(b.rdd.collect())
        cells = a.meta.cells_per_chunk
        want = []
        for chunk_id in sorted(left.keys() | right.keys()):
            if how == "and" and not (chunk_id in left
                                     and chunk_id in right):
                continue
            empty = Chunk.empty(cells)
            merged = left.get(chunk_id, empty).elementwise(
                right.get(chunk_id, empty), np.subtract, how=how,
                fill=-1.0)
            if merged.valid_count:
                want.append((chunk_id, merged))
        assert_byte_identical(fused, want)

    def test_combine_drops_empty_chunks(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.4, seed=1)
        diff = a.combine(a, np.subtract, how="or")  # all zeros
        survivors = diff.filter(lambda xs: xs != 0)
        assert survivors.num_chunks_materialized() == 0


class TestReflectedDunders:
    @pytest.mark.parametrize("expr", [
        lambda a: 2.0 / a,
        lambda a: a ** 2,
        lambda a: 2.0 ** a,
    ], ids=["rtruediv", "pow", "rpow"])
    def test_matches_numpy_and_eager(self, ctx, expr):
        arr = make_array(ctx, (40, 40), (16, 16), 0.4, seed=5)
        fused = expr(arr)
        assert fused.rdd.name.startswith("scalar_")
        assert_byte_identical(fused, oracle_records(
            arr.rdd.collect(), [lambda cid, c: c.map_values(expr)]))
        base_values, base_valid = arr.collect_dense(fill=1.0)
        got_values, got_valid = fused.collect_dense(fill=1.0)
        assert np.array_equal(base_valid, got_valid)
        want = expr(base_values[base_valid])
        assert np.allclose(got_values[got_valid], want)

    def test_pow_between_arrays_uses_combine(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.5, seed=1)
        b = make_array(ctx, (40, 40), (16, 16), 0.5, seed=2)
        out = a ** b
        values, valid = out.collect_dense()
        av, avalid = a.collect_dense()
        bv, bvalid = b.collect_dense()
        assert np.array_equal(valid, avalid & bvalid)
        assert np.allclose(values[valid], av[valid] ** bv[valid])


class TestMaskAndDatasetFusion:
    def test_mask_apply_fuses_with_downstream_ops(self, ctx):
        rng = np.random.default_rng(9)
        shape, chunk = (40, 40), (16, 16)
        temp = ArrayRDD.from_numpy(
            ctx, rng.random(shape), chunk,
            valid=rng.random(shape) < 0.6)
        salt = ArrayRDD.from_numpy(
            ctx, rng.random(shape), chunk,
            valid=rng.random(shape) < 0.6)
        ds = SpangleDataset({"temp": temp, "salt": salt})
        restricted = ds.subarray((4, 4), (35, 35))

        fused = restricted.evaluate("salt").map_values(np.sqrt)
        assert fused.rdd.name == "fused[apply_mask→drop_empty→map]"
        # oracle: join each salt chunk with its mask entry, and_mask,
        # drop the empties, then map_values
        masks = dict(restricted.mask.rdd.collect())
        want = oracle_records(
            [(cid, c) for cid, c in salt.rdd.collect() if cid in masks],
            [lambda cid, c: c.and_mask(masks[cid]),
             lambda cid, c: c.map_values(np.sqrt)])
        assert_byte_identical(fused, want)

    def test_dataset_lazy_eager_agree_under_fusion(self, ctx):
        shape, chunk = (40, 40), (16, 16)

        def build(use_mask_rdd):
            rng = np.random.default_rng(11)
            temp = ArrayRDD.from_numpy(
                ctx, rng.random(shape), chunk,
                valid=np.ones(shape, dtype=bool))
            salt = ArrayRDD.from_numpy(
                ctx, rng.random(shape), chunk,
                valid=rng.random(shape) < 0.7)
            return SpangleDataset({"temp": temp, "salt": salt},
                                  use_mask_rdd=use_mask_rdd)

        lazy = build(True)
        eager = build(False)
        lazy_q = lazy.filter("salt", lambda xs: xs > 0.3) \
                     .subarray((2, 2), (30, 30))
        eager_q = eager.filter("salt", lambda xs: xs > 0.3) \
                       .subarray((2, 2), (30, 30))
        for attr in ("temp", "salt"):
            lv, lm = lazy_q.evaluate(attr).collect_dense()
            ev, em = eager_q.evaluate(attr).collect_dense()
            assert np.array_equal(lm, em)
            assert np.array_equal(lv, ev, equal_nan=True)


class TestSuperSparseEncoding:
    def test_fused_chain_emits_hierarchical_masks(self, ctx):
        from repro.core.chunk import choose_mode

        arr = make_array(ctx, (64, 64), (32, 32), 0.002, seed=2)
        out = arr.map_values(lambda xs: xs + 1.0) \
                 .filter(lambda xs: xs > 0)
        chunks = dict(out.rdd.collect())
        assert chunks, "chain should keep some cells"
        # the fused encode re-applies the density policy per chunk...
        for chunk in chunks.values():
            assert chunk.mode is choose_mode(chunk.density)
        # ...and the thinnest chunks really get hierarchical masks
        super_sparse = [c for c in chunks.values()
                        if c.mode is ChunkMode.SUPER_SPARSE]
        assert super_sparse
        for chunk in super_sparse:
            assert isinstance(chunk.mask, HierarchicalBitmask)
