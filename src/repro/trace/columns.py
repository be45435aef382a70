"""Slot-coded traces: the trace format the cache keeps and C reads.

A dynamic instruction is a fixed static instruction plus its dynamic
outcome.  A :class:`SlotTable` holds the static half once per trace
source: one row — a *slot* — per static record variant, with columns
pc, op, dest, src1, src2, taken and target plus a prototype
:class:`~repro.isa.instruction.TraceRecord` per row.  (A branch has one
slot per outcome, so the direction is part of the slot.)  A
:class:`TraceColumns` then holds a trace as two typed :mod:`array`
columns — the slot id of every record and its effective address —
which is 12 bytes per record.

The C engine (:mod:`repro.uarch.native`) reads ``table[slot[i]]`` in
place through the buffer pointers, with no per-record decode.  The
Python tiers get records from :meth:`SlotTable.records`, which shares
the prototype for every non-memory slot and builds a fresh record only
for loads and stores.

The synthetic generator (:mod:`repro.trace.generator`) emits slots
directly.  :meth:`TraceColumns.from_records` is the one encoder for any
other record iterable (user traces, non-registry workloads).

Published column arrays are never resized: a longer trace gets new
arrays, so a view keeps valid buffers for as long as it is alive.
"""

from __future__ import annotations

from array import array
from itertools import compress

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OP_DECODE

#: ``(field, array typecode)`` of each slot-table column the C engine
#: reads, in its entry point's argument order.
TABLE_COLUMNS = (("pc", "q"), ("op", "i"), ("dest", "i"), ("src1", "i"),
                 ("src2", "i"), ("taken", "b"))

#: Typecodes of the two per-record columns: slot id and address.
SLOT_CODE, ADDR_CODE = "i", "q"

#: Bytes one record occupies across the two per-record columns.
RECORD_BYTES = array(SLOT_CODE).itemsize + array(ADDR_CODE).itemsize

#: Every :class:`TraceRecord` field, in the order :meth:`TraceColumns.fields`
#: decodes them.
FIELDS = ("pc", "op", "dest", "src1", "src2", "addr", "taken", "target")


class SlotTable:
    """The static half of a trace: one prototype record per slot.

    ``protos[k]`` is slot ``k``'s record (address 0 for loads and
    stores).  :attr:`columns` holds the :data:`TABLE_COLUMNS` arrays
    the C engine indexes by slot; :attr:`mem` marks the slots whose
    records carry an address; :attr:`bad_stores` is the set of store
    slots lacking a base or value source, which the Python tiers crash
    on and the C loop cannot model.
    """

    __slots__ = ("protos", "columns", "mem", "bad_stores")

    def __init__(self, protos):
        self.protos = list(protos)
        self.columns = tuple(
            array(code, [int(getattr(p, name)) for p in self.protos])
            for name, code in TABLE_COLUMNS)
        decode = [OP_DECODE[p.op] for p in self.protos]
        self.mem = bytes(int(d[1] or d[2]) for d in decode)
        self.bad_stores = frozenset(
            k for k, (p, d) in enumerate(zip(self.protos, decode))
            if d[2] and (p.src1 < 0 or p.src2 < 0))

    def records(self, slots, addrs):
        """The :class:`TraceRecord` list of parallel ``slots`` and
        ``addrs`` sequences: prototypes, and a fresh trusted record per
        load or store."""
        out = list(map(self.protos.__getitem__, slots))
        new = TraceRecord.__new__
        for i in compress(range(len(out)), map(self.mem.__getitem__, slots)):
            # TraceRecord.trusted, inlined: this is the Python tiers'
            # per-load/store cost.
            proto = out[i]
            rec = out[i] = new(TraceRecord)
            rec.pc = proto.pc
            rec.op = proto.op
            rec.dest = proto.dest
            rec.src1 = proto.src1
            rec.src2 = proto.src2
            rec.addr = addrs[i]
            rec.taken = False
            rec.target = 0
        return out


class TraceColumns:
    """A slot-coded trace, with a functional warm-up prefix.

    ``slots`` and ``addrs`` hold at least ``skip + len(self)`` records
    of ``table``: the first ``skip`` only warm the cache and the branch
    predictor, and ``len()`` counts the simulated records after them.
    """

    __slots__ = ("slots", "addrs", "table", "skip", "_count")

    def __init__(self, slots, addrs, table, skip, count):
        if (skip < 0 or count < 0 or len(addrs) != len(slots)
                or len(slots) < skip + count):
            raise ValueError(
                f"{len(slots)} records cannot hold a {skip}-record "
                f"warm-up plus {count} simulated records")
        self.slots = slots
        self.addrs = addrs
        self.table = table
        self.skip = skip
        self._count = count

    @classmethod
    def from_records(cls, records, skip=0):
        """Encode a record list; its first ``skip`` records are the
        warm-up prefix.  Records equal in every field but the address
        share a slot."""
        index = {}
        slots = array(SLOT_CODE, [
            index.setdefault((r.pc, r.op, r.dest, r.src1, r.src2, r.taken,
                              r.target), len(index))
            for r in records])
        addrs = array(ADDR_CODE, [r.addr for r in records])
        table = SlotTable(TraceRecord.trusted(pc, op, dest, src1, src2, 0,
                                              taken, target)
                          for pc, op, dest, src1, src2, taken, target
                          in index)
        skip = min(skip, len(slots))
        return cls(slots, addrs, table, skip, len(slots) - skip)

    def __len__(self):
        return self._count

    def store_missing_src(self):
        """True when a simulated record is a store lacking a source."""
        bad = self.table.bad_stores
        return bool(bad) and not bad.isdisjoint(
            self.slots[self.skip:self.skip + self._count])

    def fields(self):
        """Every :data:`FIELDS` value of the ``skip + len(self)``
        records, decoded as the C engine reads them (the slot-table
        columns; ``target``, which C does not read, from the
        prototypes): ``{field: list}``."""
        end = self.skip + self._count
        slots = self.slots[:end]
        out = {name: [column[s] for s in slots] for (name, _), column
               in zip(TABLE_COLUMNS, self.table.columns)}
        out["addr"] = list(self.addrs[:end])
        protos = self.table.protos
        out["target"] = [protos[s].target for s in slots]
        return out
