"""Dynamic trace generation from a :class:`~repro.trace.program.Workload`.

The generator walks the workload's kernels (weighted-random order),
running each kernel's loop for its trip count and emitting one
:class:`~repro.isa.instruction.TraceRecord` per dynamic instruction:

* each body statement in static program order (forward hammock branches
  skip statements when taken, keeping control flow consistent),
* an induction-variable update and a back-edge branch per iteration,
* a glue branch transferring control to the next kernel.

Everything is deterministic given ``(workload, seed)``; iterating the
same trace twice yields the identical instruction stream, which the
equivalence tests between renaming schemes rely on.

**Hot-path structure.**  Each kernel body is compiled *once* into a flat
emit program (a list of small tuples tagged by an integer opcode), so
emitting a dynamic instruction costs one tuple dispatch instead of an
``isinstance`` chain per record.  Statements whose record is fully
static (ALU/FP ops, branches — both outcomes, the induction update, the
back edge, the glue branch) pre-build immutable prototype
:class:`TraceRecord` objects at compile time and yield the *same* record
object for every dynamic instance; only loads and stores, whose
effective address varies, construct a fresh (validation-free) record
per instance.  The RNG consumption order is identical to the original
statement-by-statement interpretation, so streams are bit-identical.
"""

from __future__ import annotations

import copy
import itertools
import threading
from collections import OrderedDict
from random import Random

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.isa.registers import NO_REG
from repro.trace.columns import (
    CHUNK,
    RECORD_BYTES,
    TraceColumns,
    empty_columns,
    extend_columns,
)
from repro.trace.program import (
    INDUCTION,
    CondBranch,
    FpOp,
    IntOp,
    Load,
    RegisterBinding,
    Store,
)

#: PC spacing between kernels; each kernel may hold this many bytes of code.
KERNEL_PC_STRIDE = 0x1000
BASE_PC = 0x10000

# Emit-program opcodes (first element of each compiled tuple).
_EMIT_STATIC = 0  # (op, proto_record)
_EMIT_MEM = 1  # (op, array_name, pc, record_op, dest, src1, src2)
_EMIT_BRANCH = 2  # (op, p_taken, skip, proto_taken, proto_not_taken)


class _KernelProgram:
    """One kernel's compiled emit program plus its loop-closing records."""

    __slots__ = ("body", "induction", "backedge_taken", "backedge_last",
                 "glue", "iterations")

    def __init__(self, kernel, binding, base, kernel_bases):
        body_len = len(kernel.body)
        ind_pc = base + 4 * body_len
        backedge_pc = ind_pc + 4
        glue_pc = backedge_pc + 4
        ind_reg = binding[INDUCTION]
        self.iterations = kernel.iterations
        self.body = [
            self._compile_stmt(stmt, base + 4 * pos, binding)
            for pos, stmt in enumerate(kernel.body)
        ]
        self.induction = TraceRecord(ind_pc, OpClass.INT_ALU, dest=ind_reg,
                                     src1=ind_reg)
        self.backedge_taken = TraceRecord(backedge_pc, OpClass.BRANCH,
                                          src1=ind_reg, taken=True, target=base)
        self.backedge_last = TraceRecord(backedge_pc, OpClass.BRANCH,
                                         src1=ind_reg, taken=False, target=base)
        self.glue = [
            TraceRecord(glue_pc, OpClass.BRANCH, src1=ind_reg, taken=True,
                        target=target_base)
            for target_base in kernel_bases
        ]

    @staticmethod
    def _compile_stmt(stmt, pc, binding):
        if isinstance(stmt, Load):
            op = OpClass.LOAD_FP if stmt.fp else OpClass.LOAD_INT
            # Validate the static shape once, through the checked
            # constructor; dynamic instances go through the trusted one.
            TraceRecord(pc, op, dest=binding[stmt.dst],
                        src1=binding[stmt.base], addr=0)
            return (_EMIT_MEM, stmt.array, pc, op, binding[stmt.dst],
                    binding[stmt.base], NO_REG)
        if isinstance(stmt, Store):
            op = OpClass.STORE_FP if stmt.fp else OpClass.STORE_INT
            TraceRecord(pc, op, src1=binding[stmt.base],
                        src2=binding[stmt.value], addr=0)
            return (_EMIT_MEM, stmt.array, pc, op, NO_REG,
                    binding[stmt.base], binding[stmt.value])
        if isinstance(stmt, (IntOp, FpOp)):
            srcs = stmt.srcs
            src1 = binding[srcs[0]]
            src2 = binding[srcs[1]] if len(srcs) > 1 else NO_REG
            proto = TraceRecord(pc, stmt.kind, dest=binding[stmt.dst],
                                src1=src1, src2=src2)
            return (_EMIT_STATIC, proto)
        if isinstance(stmt, CondBranch):
            target = pc + 4 + 4 * stmt.skip
            src = binding[stmt.src]
            return (
                _EMIT_BRANCH, stmt.p_taken, stmt.skip,
                TraceRecord(pc, OpClass.BRANCH, src1=src, taken=True,
                            target=target),
                TraceRecord(pc, OpClass.BRANCH, src1=src, taken=False,
                            target=target),
            )
        raise TypeError(f"unknown statement: {stmt!r}")


#: Estimated bytes per record of the Python form: its list slot plus a
#: share of the fresh load/store records (static ones are prototypes).
_PYTHON_RECORD_BYTES = 64


class _TraceEntry:
    """Both forms of one cached ``(workload, seed)`` trace prefix.

    The columns are always built, a chunk at a time from the record
    stream; the Python record list only once a Python tier iterates.
    """

    __slots__ = ("key", "source", "columns", "missing", "stream",
                 "records", "record_stream")

    def __init__(self, key, source):
        self.key = key
        self.source = source
        self.columns = empty_columns()
        self.missing = []
        self.stream = iter(source)
        self.records = None
        self.record_stream = None

    def nbytes(self):
        size = len(self.columns[0]) * RECORD_BYTES
        if self.records is not None:
            size += len(self.records) * _PYTHON_RECORD_BYTES
        return size

    def grow_columns(self, count):
        start = len(self.columns[0])
        if count <= start:
            return
        tail = empty_columns()
        while start < count:
            chunk = list(itertools.islice(self.stream,
                                          min(count - start, CHUNK)))
            if not chunk:
                break
            extend_columns(tail, self.missing, chunk, start)
            start += len(chunk)
        if len(self.columns[0]):
            # Published arrays are never resized (views hold their
            # buffers), so a longer prefix gets new arrays.
            tail = tuple(old + new for old, new in zip(self.columns, tail))
        self.columns = tail

    def grow_records(self, count):
        if self.records is None:
            self.records = []
            self.record_stream = iter(self.source)
        need = count - len(self.records)
        if need > 0:
            self.records.extend(itertools.islice(self.record_stream, need))


class _TraceCache:
    """The process-level LRU of trace entries, bounded by bytes.

    Trace streams are deterministic per ``(workload, seed)``, so
    repeated simulations of the same point — benchmark repeats, engine
    A/B comparisons, config sweeps over one workload — share one
    materialization instead of re-running the generator.  The most
    recent entry always stays, whatever its size; entries grow on
    demand when a later caller needs a longer prefix.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries = OrderedDict()
        self.nbytes = 0
        # Serializes mutation: two threads must not drain one stream.
        self.lock = threading.Lock()

    def grow(self, entry, grow, count):
        """Run ``grow(count)`` on ``entry`` and evict to the bound."""
        before = entry.nbytes()
        grow(count)
        if self.entries.get(entry.key) is entry:  # not evicted meanwhile
            self.nbytes += entry.nbytes() - before
        self.trim()

    def trim(self):
        """Evict least recently used entries down to the byte bound."""
        while self.nbytes > self.max_bytes and len(self.entries) > 1:
            _, evicted = self.entries.popitem(last=False)
            self.nbytes -= evicted.nbytes()


_MATERIALIZED = _TraceCache(max_bytes=2 << 20)


class CachedTrace:
    """The first ``len(self)`` records of a cached trace, in two forms.

    Iterating yields the shared, write-once :class:`TraceRecord` list
    (built on first iteration, for the Python tiers);
    :meth:`columns` is the native tier's columnar view.
    """

    __slots__ = ("_entry", "_count")

    def __init__(self, entry, count):
        self._entry = entry
        self._count = count

    def __len__(self):
        return self._count

    def __iter__(self):
        entry = self._entry
        with _MATERIALIZED.lock:
            _MATERIALIZED.grow(entry, entry.grow_records, self._count)
        return itertools.islice(entry.records, self._count)

    def columns(self, skip=0, limit=None):
        """A :class:`~repro.trace.columns.TraceColumns` view: ``skip``
        warm-up records, then at most ``limit`` simulated ones."""
        skip = min(skip, self._count)
        count = self._count - skip
        if limit is not None:
            count = min(count, limit)
        entry = self._entry
        return TraceColumns(entry.columns, entry.missing, skip, count)


def materialized_trace(workload, seed, count):
    """The first ``count`` records of ``SyntheticTrace(workload, seed)``.

    Served from a process-level LRU keyed by ``(workload.name, seed)``
    as a :class:`CachedTrace` — callers must only use it for
    registry-loaded workloads, where the name uniquely identifies the
    kernel content.  Records are write-once (the pipeline never mutates
    a :class:`TraceRecord`), so sharing either form across runs is safe.
    """
    key = (workload.name, seed)
    cache = _MATERIALIZED
    with cache.lock:
        entry = cache.entries.get(key)
        if entry is None:
            entry = cache.entries[key] = _TraceEntry(
                key, SyntheticTrace(workload, seed))
        else:
            cache.entries.move_to_end(key)
        cache.trim()  # before growing, so evicted entries free memory
        cache.grow(entry, entry.grow_columns, count)
    return CachedTrace(entry, count)


def clear_materialized_traces():
    """Drop the materialized-trace cache, both forms (tests, memory
    pressure)."""
    with _MATERIALIZED.lock:
        _MATERIALIZED.entries.clear()
        _MATERIALIZED.nbytes = 0


class SyntheticTrace:
    """Iterable over the dynamic instruction stream of a workload.

    Each ``iter()`` produces an independent, identically-seeded stream.
    """

    def __init__(self, workload, seed=1234):
        self.workload = workload
        self.seed = seed
        self._bindings = [RegisterBinding(k) for k in workload.kernels]
        self._bases = [
            BASE_PC + i * KERNEL_PC_STRIDE for i in range(len(workload.kernels))
        ]
        for kernel, base in zip(workload.kernels, self._bases):
            static_len = len(kernel.body) + 3  # + induction, back-edge, glue
            if static_len * 4 > KERNEL_PC_STRIDE:
                raise ValueError(f"kernel {kernel.name!r} too large for PC region")
        self._programs = [
            _KernelProgram(kernel, binding, base, self._bases)
            for kernel, binding, base
            in zip(workload.kernels, self._bindings, self._bases)
        ]

    def __iter__(self):
        return self._generate()

    def take(self, n):
        """Materialize the first ``n`` records as a list."""
        return list(itertools.islice(iter(self), n))

    # -- internals ---------------------------------------------------------

    def _generate(self):
        rng = Random(self.seed)
        kernels = self.workload.kernels
        # Private pattern state per generator so that concurrent iterations
        # of one workload cannot interfere.
        arrays = [copy.deepcopy(k.arrays) for k in kernels]
        weights = [k.weight for k in kernels]
        current = rng.choices(range(len(kernels)), weights)[0]
        while True:
            nxt = rng.choices(range(len(kernels)), weights)[0]
            # One kernel visit is materialized eagerly and re-yielded at
            # C speed: the consumer crosses a single generator frame per
            # record instead of two.  The RNG draw order is unchanged
            # (nothing interleaves with a visit), so streams stay
            # bit-identical to lazy emission.
            yield from self._run_kernel(current, nxt, arrays[current], rng)
            current = nxt

    def _run_kernel(self, idx, next_idx, arrays, rng):
        """All records of one kernel visit, in emission order (a list)."""
        program = self._programs[idx]
        body = program.body
        body_len = len(body)
        trusted = TraceRecord.trusted
        random = rng.random
        induction = program.induction
        backedge_taken = program.backedge_taken
        last_iteration = program.iterations - 1
        out = []
        emit = out.append

        for it in range(program.iterations):
            pos = 0
            while pos < body_len:
                entry = body[pos]
                kind = entry[0]
                if kind == _EMIT_STATIC:
                    emit(entry[1])
                    pos += 1
                elif kind == _EMIT_MEM:
                    _, array, pc, op, dest, src1, src2 = entry
                    addr = arrays[array].next_address(rng)
                    emit(trusted(pc, op, dest, src1, src2, addr))
                    pos += 1
                else:  # _EMIT_BRANCH
                    taken = random() < entry[1]
                    if taken:
                        emit(entry[3])
                        pos += 1 + entry[2]
                    else:
                        emit(entry[4])
                        pos += 1

            # Induction update and loop back-edge.
            emit(induction)
            emit(backedge_taken if it != last_iteration
                 else program.backedge_last)

        # Glue branch into the next kernel (always taken).
        emit(program.glue[next_idx])
        return out


def take(trace, n):
    """First ``n`` records of any trace iterable."""
    return list(itertools.islice(iter(trace), n))
