"""Size estimation for shuffle/cache accounting.

Spark estimates object sizes when it decides what to spill and reports
shuffle read/write volumes; our engine needs the same so the cost model
sees realistic byte counts. The estimator is deliberately simple but exact
for the types the library actually shuffles: numpy arrays, chunks,
bitmasks, and small tuples/records around them.

The byte rules, which every path below must agree on:

- builtin leaves: ``int``, ``float`` and ``bool`` are 8 bytes,
  ``complex`` 16, ``None`` 0;
- ``tuple``/``list``: 8 bytes of framing plus the sum of their items;
- ``dict``/``set``/``frozenset``: 16 bytes plus their keys and values;
- ``str``/``bytes``/``bytearray``: their length;
- plain numpy arrays and scalars: ``nbytes``; object arrays: 8 bytes a
  pointer plus each element;
- anything a registered sizer claims (chunks: payload + mask words +
  rank caches), then anything advertising an integer ``nbytes``;
- everything else: ``sys.getsizeof``.

Builtin leaves and plain tuples/lists are matched by exact type before
the registered sizers run, so a sizer must not claim them. That lookup
is the hot path: a collected or shuffled partition is mostly small
tuples of Python numbers. Every other type goes through the ordered
walker (:func:`_estimate_generic`).
"""

from __future__ import annotations

import sys

import numpy as np

#: exact-type sizes of the builtin leaves (``bool`` sizes as an ``int``)
_LEAF_SIZE = {int: 8, float: 8, bool: 8, complex: 16, type(None): 0}

#: exact sizers registered by higher layers; each probe returns a byte
#: count or None to decline. ``repro.core`` registers a chunk-exact
#: sizer (payload + mask words + milestone caches) so budget accounting
#: and the eviction score see true chunk footprints.
_SIZERS = []


def register_sizer(probe) -> None:
    """Register ``probe(obj) -> int | None`` tried before the generic
    ``nbytes`` path. Used by higher layers so the engine never imports
    them (the same inversion as the shuffle value codecs). Builtin
    leaves and plain tuples/lists never reach a probe."""
    _SIZERS.append(probe)


def estimate_size(obj) -> int:
    """Deep size of ``obj`` in bytes, by the rules in the module doc."""
    kind = type(obj)
    size = _LEAF_SIZE.get(kind)
    if size is not None:
        return size
    if kind is tuple or kind is list:
        return _sequence_size(obj)
    return _estimate_generic(obj)


def _sequence_size(items) -> int:
    # estimate_size inlined: records are nested tuples of leaves
    total = 8
    for item in items:
        kind = type(item)
        size = _LEAF_SIZE.get(kind)
        if size is None:
            if kind is tuple or kind is list:
                size = _sequence_size(item)
            else:
                size = _estimate_generic(item)
        total += size
    return total


def _estimate_generic(obj) -> int:
    """The ordered walker for every type without an exact-type rule.

    Object arrays recurse into their elements; registered exact sizers
    come next, then an integer ``nbytes`` attribute (numpy arrays and
    scalars, the library's Bitmask), then containers and strings.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            # object arrays report pointer bytes only; recurse into the
            # elements for the real payload
            return 8 * obj.size + sum(estimate_size(o) for o in obj.flat)
        return int(obj.nbytes)
    for probe in _SIZERS:
        exact = probe(obj)
        if exact is not None:
            return exact
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(obj, (int, float)):
        # int/float subclasses (bool included) size as their base
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return _sequence_size(obj)
    if isinstance(obj, dict):
        return 16 + sum(
            estimate_size(k) + estimate_size(v) for k, v in obj.items()
        )
    if isinstance(obj, (set, frozenset)):
        return 16 + sum(estimate_size(item) for item in obj)
    return sys.getsizeof(obj)


def estimate_partition_size(records) -> int:
    """Total size of an iterable of records (consumes nothing: pass a list).

    Packed shuffle blocks (:class:`~repro.engine.batches.RecordBatch`,
    numpy arrays) advertise exact ``nbytes`` and are reported as such in
    one step rather than sampled per record.
    """
    nbytes = getattr(records, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return sum(map(estimate_size, records))
