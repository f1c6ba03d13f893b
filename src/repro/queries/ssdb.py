"""The SS-DB-style raster benchmark queries of Table I, on Spangle.

Five queries over a stack of images (dimensions x, y, image; one
attribute per band):

- **Q1** (aggregation): average of selected cells in a range —
  background-noise estimation over raw imagery.
- **Q2** (regridding): average of adjacent cells onto a coarser grid.
- **Q3** (aggregation): cells in a range matching a condition, averaged.
- **Q4** (polygons): count observations in a range satisfying a
  condition after a filter.
- **Q5** (density): group observations into spatial windows, find
  windows with more than a given number of observations.

Baseline implementations of the same queries live with their systems
(:mod:`repro.baselines`); this module provides the Spangle side plus the
shared dataset loader.
"""

from __future__ import annotations

import numpy as np

from repro.core import ArrayRDD, SpangleDataset
from repro.core import mapper
from repro.data.raster import sdss_stack
from repro.errors import ArrayError


def load_spangle_dataset(context, band_scenes: dict,
                         chunk_shape=(128, 128, 1),
                         num_partitions=None,
                         use_mask_rdd: bool = True) -> SpangleDataset:
    """Ingest ``{band: [2-D scenes]}`` into a 3-D multi-band dataset."""
    attributes = {}
    for band, scenes in band_scenes.items():
        values, valid = sdss_stack(scenes)
        attributes[band] = ArrayRDD.from_numpy(
            context, values, chunk_shape, valid=valid,
            num_partitions=num_partitions,
            dim_names=("x", "y", "image"), attribute=band)
    return SpangleDataset(attributes, use_mask_rdd=use_mask_rdd)


def _window_partials(array: ArrayRDD, window: int):
    """Per-window (sum, count) records keyed ``(image, wr, wc)``.

    Windows tile the (x, y) plane; images stay separate. Windows that
    straddle chunk boundaries are completed by the reduce.
    """
    if window <= 0:
        raise ArrayError("window must be positive")
    meta = array.meta
    if meta.ndim != 3:
        raise ArrayError("window queries expect an (x, y, image) array")
    # when windows tile chunks exactly, no window spans two chunks:
    # per-chunk results are final and the merge shuffle can be skipped
    globally_aligned = (
        meta.chunk_shape[0] % window == 0
        and meta.chunk_shape[1] % window == 0
        and meta.starts[0] % window == 0
        and meta.starts[1] % window == 0
    )

    cx, cy, ci = meta.chunk_shape

    def aligned_windows(origin, filled, valid):
        # windows tile the chunk exactly: one reshape-reduce per chunk
        nr, nc = cx // window, cy // window
        sums = filled.reshape(nr, window, nc, window, ci).sum(axis=(1, 3))
        counts = valid.reshape(nr, window, nc, window, ci).sum(axis=(1, 3))
        wr, wc, t = np.nonzero(counts > 0)
        keys = zip((origin[2] + t).tolist(),
                   (origin[0] // window + wr).tolist(),
                   (origin[1] // window + wc).tolist())
        return keys, sums[wr, wc, t].tolist(), counts[wr, wc, t].tolist()

    def labelled_windows(origin, filled, valid):
        # label every cell with its window, numbered (image, row, col)
        # in lexicographic order, and sum each label in cell order
        rows = (origin[0] + np.arange(cx)) // window
        cols = (origin[1] + np.arange(cy)) // window
        row0, col0 = int(rows[0]), int(cols[0])
        nr = int(rows[-1]) - row0 + 1
        nc = int(cols[-1]) - col0 + 1
        labels = ((np.arange(ci)[None, None, :] * nr
                   + (rows - row0)[:, None, None]) * nc
                  + (cols - col0)[None, :, None]).ravel()
        sums = np.bincount(labels, weights=filled.ravel(),
                           minlength=ci * nr * nc)
        counts = np.bincount(labels[valid.ravel()], minlength=ci * nr * nc)
        live = np.flatnonzero(counts)
        keys = zip((origin[2] + live // (nr * nc)).tolist(),
                   (row0 + live // nc % nr).tolist(),
                   (col0 + live % nc).tolist())
        return keys, sums[live].tolist(), counts[live].tolist()

    def partials(part):
        for chunk_id, chunk in part:
            valid = chunk.valid_bools().reshape((cx, cy, ci), order="F")
            if not valid.any():
                continue
            origin = mapper.chunk_origin(meta, chunk_id)
            dense = chunk.to_dense(0.0).reshape((cx, cy, ci), order="F")
            filled = np.where(valid, dense, 0.0)
            aligned = (
                cx % window == 0 and cy % window == 0
                and origin[0] % window == 0 and origin[1] % window == 0
            )
            windows = aligned_windows if aligned else labelled_windows
            keys, sums, counts = windows(origin, filled, valid)
            yield from zip(keys, zip(sums, counts))

    mapped = array.rdd.map_partitions(partials)
    if globally_aligned:
        return mapped
    return mapped.reduce_by_key(
        lambda a, b: (a[0] + b[0], a[1] + b[1]))


class SpangleRasterQueries:
    """The five Table-I queries against a SpangleDataset."""

    name = "Spangle"

    def __init__(self, dataset: SpangleDataset):
        self.dataset = dataset

    def _restricted(self, band: str, box=None) -> ArrayRDD:
        ds = self.dataset
        if box is not None:
            lo, hi = box
            ds = ds.subarray(lo, hi)
        return ds.evaluate(band)

    # ------------------------------------------------------------------

    def q1_aggregation(self, band: str, box=None) -> float:
        """Average value of selected cells (optionally in a range)."""
        return self._restricted(band, box).aggregate("avg")

    def q2_regrid(self, band: str, grid: int, box=None) -> dict:
        """Average of adjacent cells onto a grid of ``grid × grid``."""
        array = self._restricted(band, box)
        merged = _window_partials(array, grid).collect()
        return {
            key: s / n for key, (s, n) in merged
        }

    def q3_conditional_aggregation(self, band: str, predicate,
                                   box=None) -> float:
        """Average of cells in a range matching a condition."""
        ds = self.dataset
        if box is not None:
            ds = ds.subarray(*box)
        return ds.filter(band, predicate).evaluate(band).aggregate("avg")

    def q4_polygons(self, band: str, filter_predicate,
                    count_predicate, box=None) -> int:
        """Filter, then count observations satisfying a condition."""
        ds = self.dataset
        if box is not None:
            ds = ds.subarray(*box)
        filtered = ds.filter(band, filter_predicate).evaluate(band)
        return filtered.filter(count_predicate).count_valid()

    def q5_density(self, band: str, window: int, min_count: int,
                   box=None) -> int:
        """Windows containing more than ``min_count`` observations.

        Unlike Q2, Q5 counts observations across *all* attributes'
        shared validity — this is the query Fig. 9b uses to measure the
        MaskRDD's effect as attributes are added.
        """
        array = self._restricted(band, box)
        merged = _window_partials(array, window).collect()
        return sum(1 for _key, (_s, n) in merged if n > min_count)


def reference_window_counts(valid: np.ndarray, window: int) -> dict:
    """Dense-numpy oracle for window observation counts (tests).

    Maps ``(image, window_row, window_col)`` to the number of valid
    cells in that window, for windows with at least one.
    """
    xs, ys, imgs = np.nonzero(valid)
    keys = np.stack([imgs, xs // window, ys // window], axis=1)
    windows, counts = np.unique(keys, axis=0, return_counts=True)
    return dict(zip(map(tuple, windows.tolist()), counts.tolist()))
