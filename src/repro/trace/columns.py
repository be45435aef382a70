"""Columnar traces: the native tier's trace format.

A :class:`TraceColumns` holds a trace as seven typed :mod:`array`
columns — pc, op, dest, src1, src2, addr, taken — which the C engine
(:mod:`repro.uarch.native`) reads in place through their buffer
pointers, so a native run does no per-record Python work.
:func:`extend_columns` is the one record-to-column conversion: the
materialized-trace cache (:func:`repro.trace.generator.materialized_trace`)
fills its columns with it chunk by chunk, and
:meth:`TraceColumns.from_records` uses it for any other record iterable.

Published column arrays are never resized: a longer trace gets new
arrays, so a view keeps valid buffers for as long as it is alive.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress

from repro.isa.opcodes import OP_DECODE

#: ``(TraceRecord field, array typecode)`` of each column, in the C
#: entry point's argument order.
COLUMNS = (("pc", "q"), ("op", "i"), ("dest", "i"), ("src1", "i"),
           ("src2", "i"), ("addr", "q"), ("taken", "b"))

#: Bytes one record occupies across all columns.
RECORD_BYTES = sum(array(code).itemsize for _, code in COLUMNS)

#: Records converted per step, bounding the transient lists.
CHUNK = 8192

# bytes.translate table: opcode -> 1 for stores, else 0.
_STORE_TABLE = bytes(int(i < len(OP_DECODE) and OP_DECODE[i][2])
                     for i in range(256))


def empty_columns():
    """A fresh, empty set of column arrays."""
    return tuple(array(code) for _, code in COLUMNS)


def extend_columns(arrays, missing, records, start):
    """Append ``records`` (a list) to the column ``arrays``.

    ``start`` is the trace index of ``records[0]``.  The index of every
    store lacking a base or value source is appended to ``missing``: a
    store's value tag is its second source, which the Python tiers
    crash on and the C loop cannot model.
    """
    pc, op, dest, src1, src2, addr, taken = arrays
    for base in range(0, len(records), CHUNK):
        chunk = records[base:base + CHUNK]
        # One comprehension per field: the cheapest per-record path
        # CPython offers (specialized attribute loads and list appends).
        ops = [r.op for r in chunk]
        firsts = [r.src1 for r in chunk]
        seconds = [r.src2 for r in chunk]
        pc.fromlist([r.pc for r in chunk])
        op.fromlist(ops)
        dest.fromlist([r.dest for r in chunk])
        src1.fromlist(firsts)
        src2.fromlist(seconds)
        addr.fromlist([r.addr for r in chunk])
        taken.fromlist([1 if r.taken else 0 for r in chunk])
        stores = bytes(ops).translate(_STORE_TABLE)  # 1 per store
        for i in compress(range(len(ops)), stores):
            if firsts[i] < 0 or seconds[i] < 0:
                missing.append(start + base + i)


class TraceColumns:
    """A trace as typed columns, with a functional warm-up prefix.

    ``arrays`` (see :data:`COLUMNS`) hold at least ``skip + len(self)``
    records: the first ``skip`` only warm the cache and the branch
    predictor, and ``len()`` counts the simulated records after them.
    ``missing`` lists, ascending, the indices of stores without both
    sources.
    """

    __slots__ = ("arrays", "skip", "_count", "_missing")

    def __init__(self, arrays, missing, skip, count):
        if skip < 0 or count < 0 or len(arrays[0]) < skip + count:
            raise ValueError(
                f"{len(arrays[0])} records cannot hold a {skip}-record "
                f"warm-up plus {count} simulated records")
        self.arrays = arrays
        self.skip = skip
        self._count = count
        self._missing = missing

    @classmethod
    def from_records(cls, records, skip=0):
        """Columns of a record list; its first ``skip`` records are the
        warm-up prefix."""
        arrays, missing = empty_columns(), []
        extend_columns(arrays, missing, records, 0)
        skip = min(skip, len(records))
        return cls(arrays, missing, skip, len(records) - skip)

    def __len__(self):
        return self._count

    def store_missing_src(self):
        """True when a simulated record is a store lacking a source."""
        missing = self._missing
        i = bisect_left(missing, self.skip)
        return i < len(missing) and missing[i] < self.skip + self._count
