"""Tests: estimate_size follows its documented byte rules exactly.

The reference walker below restates the rules of
:mod:`repro.engine.sizing` one type at a time, with no fast path, and
hypothesis draws nested records of every sized type to compare against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chunk, ChunkMode
from repro.core.chunk import chunk_exact_size
from repro.engine.sizing import estimate_partition_size, estimate_size


def reference_size(obj) -> int:
    if isinstance(obj, Chunk):
        return chunk_exact_size(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return 8 * obj.size + sum(reference_size(o) for o in obj.flat)
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.nbytes
    if obj is None:
        return 0
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return 8 + sum(reference_size(item) for item in obj)
    if isinstance(obj, dict):
        return 16 + sum(reference_size(k) + reference_size(v)
                        for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return 16 + sum(reference_size(item) for item in obj)
    raise TypeError(f"no documented rule for {type(obj)}")


def _chunk(mode, density, cells=256):
    rng = np.random.default_rng(cells)
    valid = rng.random(cells) < density
    valid[0] = True
    return Chunk.from_dense(rng.standard_normal(cells), valid, mode=mode)


CHUNKS = [
    _chunk(ChunkMode.DENSE, 0.9),
    _chunk(ChunkMode.SPARSE, 0.2),
    _chunk(ChunkMode.SUPER_SPARSE, 0.01, cells=4096),
]
# a rank query builds the milestone cache, which the chunk sizer counts
CHUNKS[1].mask.rank(CHUNKS[1].num_cells // 2, "milestone")

hashable_leaves = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.complex_numbers(allow_nan=False),
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=6),
)
numpy_scalars = st.one_of(
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
plain_arrays = st.tuples(
    st.sampled_from([np.float64, np.float32, np.int8, np.bool_]),
    st.integers(0, 12),
).map(lambda spec: np.zeros(spec[1], dtype=spec[0]))
object_arrays = st.lists(hashable_leaves, max_size=4).map(
    lambda items: np.array(items + [None], dtype=object))
leaves = st.one_of(
    hashable_leaves,
    numpy_scalars,
    plain_arrays,
    object_arrays,
    st.binary(max_size=6).map(bytearray),
    st.sampled_from(CHUNKS),
)
records = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashable_leaves, children, max_size=3),
        st.sets(hashable_leaves, max_size=3),
        st.frozensets(hashable_leaves, max_size=3),
    ),
    max_leaves=12,
)


class TestSizingRules:
    @settings(max_examples=300, deadline=None)
    @given(obj=records)
    def test_matches_reference_walker(self, obj):
        assert estimate_size(obj) == reference_size(obj)

    @settings(max_examples=50, deadline=None)
    @given(part=st.lists(records, max_size=6))
    def test_partition_is_sum_of_records(self, part):
        assert estimate_partition_size(part) == sum(
            reference_size(record) for record in part)

    @pytest.mark.parametrize("obj,size", [
        (True, 8),
        (False, 8),
        (7, 8),
        (2.5, 8),
        (1 + 2j, 16),
        (None, 0),
        (np.float32(1.5), 4),
        (np.float64(1.5), 8),
        (np.bool_(True), 1),
        (np.int16(3), 2),
        ((), 8),
        ([], 8),
        (((1, 2, 3), (0.5, 4)), 8 + 32 + 24),
        ("abc", 3),
        ({}, 16),
    ])
    def test_pinned_sizes(self, obj, size):
        assert estimate_size(obj) == size

    def test_chunks_use_the_registered_sizer(self):
        for chunk in CHUNKS:
            assert estimate_size(chunk) == chunk_exact_size(chunk)
            assert estimate_size((3, chunk)) == 16 + chunk_exact_size(chunk)

    def test_subclasses_size_as_their_base(self):
        class Flag(int):
            pass

        class Pair(tuple):
            pass

        assert estimate_size(Flag(3)) == 8
        assert estimate_size(Pair((1, 2.0))) == 24
