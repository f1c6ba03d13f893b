"""Tests: the Table-I queries on Spangle match dense-numpy references
and the baseline systems' answers."""

import pickle

import numpy as np
import pytest

from repro.baselines import RasterFramesSystem, SciDBSystem, SciSparkSystem
from repro.core import ArrayRDD
from repro.data import sdss_like
from repro.data.raster import sdss_stack
from repro.engine import ClusterContext
from repro.errors import ArrayError
from repro.queries import SpangleRasterQueries, load_spangle_dataset
from repro.queries.ssdb import _window_partials, reference_window_counts


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


@pytest.fixture(scope="module")
def bands():
    return sdss_like(4, shape=(96, 96), objects_per_image=30, seed=0)


@pytest.fixture()
def queries(ctx, bands):
    ds = load_spangle_dataset(ctx, bands, chunk_shape=(32, 32, 1))
    return SpangleRasterQueries(ds)


@pytest.fixture(scope="module")
def cube(bands):
    return sdss_stack(bands["u"])


class TestQ1:
    def test_full(self, queries, cube):
        values, valid = cube
        assert queries.q1_aggregation("u") == pytest.approx(
            values[valid].mean())

    def test_range(self, queries, cube):
        values, valid = cube
        box = ((8, 8, 0), (60, 72, 3))
        sel = np.zeros_like(valid)
        sel[8:61, 8:73, :] = True
        sel &= valid
        assert queries.q1_aggregation("u", box) == pytest.approx(
            values[sel].mean())


class TestQ2:
    def test_windows_match_reference(self, queries, cube):
        values, valid = cube
        result = queries.q2_regrid("u", 8)
        counts = reference_window_counts(valid, 8)
        assert set(result) == set(counts)
        for (img, wr, wc), mean in result.items():
            window_vals = values[wr * 8:(wr + 1) * 8,
                                 wc * 8:(wc + 1) * 8, img]
            window_valid = valid[wr * 8:(wr + 1) * 8,
                                 wc * 8:(wc + 1) * 8, img]
            assert window_valid.sum() == counts[(img, wr, wc)]
            assert mean == pytest.approx(window_vals[window_valid].mean())

    def test_window_validation(self, queries):
        with pytest.raises(ArrayError):
            queries.q2_regrid("u", 0)


def dense_window_partials(values, valid, starts, window) -> dict:
    """Oracle: ``{(image, wr, wc): (sum, count)}`` straight from the
    dense cube, for windows with at least one valid cell."""
    xs, ys, imgs = np.nonzero(valid)
    keys = np.stack([starts[2] + imgs, (starts[0] + xs) // window,
                     (starts[1] + ys) // window], axis=1)
    windows, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sums = np.bincount(inverse, weights=values[xs, ys, imgs])
    counts = np.bincount(inverse)
    return {tuple(key): (s, n) for key, s, n in
            zip(windows.tolist(), sums.tolist(), counts.tolist())}


class TestWindowPartialsExact:
    """Every window's (sum, count) equals the dense oracle exactly.

    Cell values are small integers, so every float sum is exact in any
    order and the comparison can be ``==``.
    """

    @pytest.mark.parametrize("shape,chunk,starts,window", [
        # aligned: windows tile chunks, no merge shuffle
        ((32, 32, 3), (16, 16, 1), (0, 0, 0), 8),
        ((32, 32, 4), (16, 16, 2), (0, 0, 0), 4),
        ((32, 32, 3), (16, 16, 1), (8, 16, 5), 8),
        # unaligned grids
        ((32, 32, 3), (16, 16, 1), (0, 0, 0), 6),
        ((32, 32, 4), (16, 16, 2), (0, 0, 0), 5),
        # nonzero starts that break the alignment
        ((32, 32, 3), (16, 16, 1), (5, 3, 2), 4),
        ((32, 32, 3), (16, 16, 1), (4, 0, 0), 8),
        # edge chunks: shape not a multiple of the chunk shape
        ((30, 27, 2), (16, 16, 1), (0, 0, 0), 8),
        ((30, 27, 2), (16, 16, 1), (3, 7, 1), 5),
        # window larger than a chunk
        ((40, 36, 2), (16, 16, 1), (0, 0, 0), 20),
        ((40, 36, 2), (8, 8, 1), (2, 1, 0), 32),
    ])
    def test_every_window_exact(self, ctx, shape, chunk, starts, window):
        rng = np.random.default_rng(sum(shape) + window)
        values = rng.integers(-50, 50, size=shape).astype(np.float64)
        valid = rng.random(shape) < 0.6
        array = ArrayRDD.from_numpy(ctx, values, chunk, valid=valid,
                                    starts=starts)
        records = _window_partials(array, window).collect()
        got = dict(records)
        assert len(got) == len(records)
        assert got == dense_window_partials(values, valid, starts, window)
        for key, (s, n) in records:
            assert all(type(k) is int for k in key)
            assert type(s) is float and type(n) is int

    def test_reference_window_counts(self, cube):
        _values, valid = cube
        counts = {}
        for x, y, img in zip(*np.nonzero(valid)):
            key = (int(img), int(x) // 7, int(y) // 7)
            counts[key] = counts.get(key, 0) + 1
        assert reference_window_counts(valid, 7) == counts


class TestWindowBackendIdentity:
    """Q2 and Q5 return the same bytes on serial, thread and process."""

    @staticmethod
    def _answers(ctx, bands):
        queries = SpangleRasterQueries(
            load_spangle_dataset(ctx, bands, chunk_shape=(32, 32, 1)))
        return pickle.dumps([
            queries.q2_regrid("u", 8),
            queries.q2_regrid("u", 12),
            queries.q2_regrid("u", 8, ((8, 8, 0), (60, 72, 3))),
            queries.q5_density("u", 8, 5),
            queries.q5_density("u", 12, 5),
        ])

    def test_serial_thread_process_identical(self, bands):
        serial = ClusterContext(num_executors=2, use_threads=False)
        want = self._answers(serial, bands)
        with ClusterContext(num_executors=2, use_threads=True) as ctx:
            assert self._answers(ctx, bands) == want
        with ClusterContext(num_executors=2, backend="process") as ctx:
            assert self._answers(ctx, bands) == want


class TestQ3Q4:
    def test_q3(self, queries, cube):
        values, valid = cube
        mask = valid & (np.where(valid, values, 0) > 1.0)
        got = queries.q3_conditional_aggregation(
            "u", lambda xs: xs > 1.0)
        assert got == pytest.approx(values[mask].mean())

    def test_q4(self, queries, cube):
        values, valid = cube
        inner = valid & (np.where(valid, values, 0) > 0.5)
        final = inner & (np.where(valid, values, 0) > 2.0)
        got = queries.q4_polygons("u", lambda xs: xs > 0.5,
                                  lambda xs: xs > 2.0)
        assert got == int(final.sum())

    def test_q3_with_range(self, queries, cube):
        values, valid = cube
        box = ((0, 0, 0), (47, 47, 3))
        sel = np.zeros_like(valid)
        sel[:48, :48, :] = True
        mask = valid & sel & (np.where(valid, values, 0) > 1.0)
        got = queries.q3_conditional_aggregation(
            "u", lambda xs: xs > 1.0, box=box)
        assert got == pytest.approx(values[mask].mean())


class TestQ5:
    def test_density(self, queries, cube):
        _values, valid = cube
        counts = reference_window_counts(valid, 8)
        expected = sum(1 for n in counts.values() if n > 5)
        assert queries.q5_density("u", 8, 5) == expected

    def test_density_zero_threshold(self, queries, cube):
        _values, valid = cube
        counts = reference_window_counts(valid, 8)
        assert queries.q5_density("u", 8, 0) == len(counts)


class TestCrossSystemAgreement:
    """Spangle and the three baselines answer Table-I queries identically."""

    def test_q1_all_systems(self, ctx, bands, queries, cube):
        values, valid = cube
        expected = values[valid].mean()
        scenes = bands["u"]

        scispark = SciSparkSystem(ctx)
        assert scispark.aggregate_mean(
            scispark.load_scenes(scenes, (32, 32))) \
            == pytest.approx(expected)

        rasterframes = RasterFramesSystem(ctx)
        assert rasterframes.aggregate_mean(
            rasterframes.load_scenes(scenes, (32, 32))) \
            == pytest.approx(expected)

        with SciDBSystem(ctx) as db:
            db.store_scenes("img", scenes, (32, 32))
            assert db.aggregate_mean("img") == pytest.approx(expected)

        assert queries.q1_aggregation("u") == pytest.approx(expected)

    def test_q5_all_systems(self, ctx, bands, queries, cube):
        _values, valid = cube
        scenes = bands["u"]
        spangle = queries.q5_density("u", 8, 5)

        scispark = SciSparkSystem(ctx)
        a = scispark.density_windows(
            scispark.load_scenes(scenes, (32, 32)), 8, 5)

        rasterframes = RasterFramesSystem(ctx)
        b = rasterframes.density_windows(
            rasterframes.load_scenes(scenes, (32, 32)), 8, 5)

        with SciDBSystem(ctx) as db:
            db.store_scenes("img", scenes, (32, 32))
            c = db.density_windows("img", 8, 5)

        assert spangle == a == b == c


class TestMaskRDDPathsAgree:
    def test_q5_with_and_without_maskrdd(self, ctx, bands):
        lazy = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=True))
        eager = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=False))
        assert lazy.q5_density("u", 8, 5) == eager.q5_density("u", 8, 5)

    def test_q4_with_and_without_maskrdd(self, ctx, bands):
        lazy = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=True))
        eager = SpangleRasterQueries(load_spangle_dataset(
            ctx, bands, chunk_shape=(32, 32, 1), use_mask_rdd=False))
        args = ("u", lambda xs: xs > 0.5, lambda xs: xs > 2.0)
        assert lazy.q4_polygons(*args) == eager.q4_polygons(*args)
