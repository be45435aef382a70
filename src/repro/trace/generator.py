"""Dynamic trace generation from a :class:`~repro.trace.program.Workload`.

The generator walks the workload's kernels (weighted-random order),
running each kernel's loop for its trip count and emitting one dynamic
instruction per step:

* each body statement in static program order (forward hammock branches
  skip statements when taken, keeping control flow consistent),
* an induction-variable update and a back-edge branch per iteration,
* a glue branch transferring control to the next kernel.

Everything is deterministic given ``(workload, seed)``; iterating the
same trace twice yields the identical instruction stream, which the
equivalence tests between renaming schemes rely on.

**Slot coding.**  A dynamic instruction is a static instruction plus
its outcome, so :class:`SyntheticTrace` compiles the kernels once into
a :class:`~repro.trace.columns.SlotTable`: one slot per body statement,
two per body branch (taken and not taken), and per kernel the
induction update, both back-edge forms and one glue branch per target
kernel.  A kernel visit then emits only slot ids, plus an address per
record (0 except for loads and stores).  Each branch-free run of the
body is one precomputed ``list.extend``, so per-record Python is left
only for address patterns and body branches.  A kernel without body
branches emits its whole visit with list arithmetic, and fills the
addresses of each :class:`~repro.trace.patterns.ArrayWalk` only it
uses with one slice assignment.  The RNG draws happen in the order of
a statement-by-statement interpretation, so the stream is bit-identical
to it (``tests/trace/test_record_digests.py`` pins digests of it).

The materialized-trace cache keeps the two columns
(:func:`materialized_trace`); iterating a :class:`SyntheticTrace`
yields records decoded from the same emitter through the prototypes
(:meth:`~repro.trace.columns.SlotTable.records`).
"""

from __future__ import annotations

import copy
import itertools
import threading
from array import array
from collections import OrderedDict
from random import Random

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.isa.registers import NO_REG
from repro.trace.columns import (
    ADDR_CODE,
    RECORD_BYTES,
    SLOT_CODE,
    SlotTable,
    TraceColumns,
)
from repro.trace.patterns import ArrayWalk, ChaseRegion, RandomRegion
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

#: Records emitted per step when filling columns or iterating records,
#: bounding the transient Python lists.
CHUNK = 8192


class _Kernel:
    """One kernel's static slots and its emit plan.

    ``runs[pos]`` is the branch-free stretch of the body starting at
    ``pos``: ``(slots, mem, end)``, where ``mem`` lists ``(offset,
    array name)`` of its loads and stores and ``end`` is the body
    position of the branch closing it (``body_len`` when it reaches the
    end of the body).  A run that reaches the end carries the
    iteration's induction update and back edge; ``last_runs`` differs
    only in that back edge (not taken, leaving the loop).
    """

    __slots__ = ("iterations", "body_len", "runs", "last_runs",
                 "branches", "glue")

    def __init__(self, kernel, binding, base, kernel_bases, protos):
        def slot(record):
            protos.append(record)
            return len(protos) - 1

        body_len = len(kernel.body)
        ind_pc = base + 4 * body_len
        backedge_pc = ind_pc + 4
        glue_pc = backedge_pc + 4
        ind_reg = binding[INDUCTION]
        self.iterations = kernel.iterations
        self.body_len = body_len
        steps = [self._compile_stmt(stmt, base + 4 * pos, binding, slot)
                 for pos, stmt in enumerate(kernel.body)]
        induction = slot(TraceRecord(ind_pc, OpClass.INT_ALU, dest=ind_reg,
                                     src1=ind_reg))
        backedge = [slot(TraceRecord(backedge_pc, OpClass.BRANCH,
                                     src1=ind_reg, taken=taken, target=base))
                    for taken in (True, False)]
        self.glue = [slot(TraceRecord(glue_pc, OpClass.BRANCH, src1=ind_reg,
                                      taken=True, target=target_base))
                     for target_base in kernel_bases]
        self.branches = {pos: step[1:] for pos, step in enumerate(steps)
                         if step[0] == "branch"}
        self.runs, self.last_runs = [], []
        for start in range(body_len + 1):
            run, mem, end = [], [], start
            while end < body_len and steps[end][0] != "branch":
                kind, s = steps[end][:2]
                if kind == "mem":
                    mem.append((len(run), steps[end][2]))
                run.append(s)
                end += 1
            last = run
            if end == body_len:
                last = run + [induction, backedge[1]]
                run = run + [induction, backedge[0]]
            self.runs.append((run, mem, end))
            self.last_runs.append((last, mem, end))

    @staticmethod
    def _compile_stmt(stmt, pc, binding, slot):
        """``("static", slot)``, ``("mem", slot, array name)`` or
        ``("branch", p_taken, skip, taken slot, not-taken slot)``.
        Every prototype goes through the checked constructor once."""
        if isinstance(stmt, Load):
            op = OpClass.LOAD_FP if stmt.fp else OpClass.LOAD_INT
            return ("mem", slot(TraceRecord(pc, op, dest=binding[stmt.dst],
                                            src1=binding[stmt.base],
                                            addr=0)), stmt.array)
        if isinstance(stmt, Store):
            op = OpClass.STORE_FP if stmt.fp else OpClass.STORE_INT
            return ("mem", slot(TraceRecord(pc, op, src1=binding[stmt.base],
                                            src2=binding[stmt.value],
                                            addr=0)), stmt.array)
        if isinstance(stmt, (IntOp, FpOp)):
            srcs = stmt.srcs
            src2 = binding[srcs[1]] if len(srcs) > 1 else NO_REG
            return ("static", slot(TraceRecord(pc, stmt.kind,
                                               dest=binding[stmt.dst],
                                               src1=binding[srcs[0]],
                                               src2=src2)))
        if isinstance(stmt, CondBranch):
            target = pc + 4 + 4 * stmt.skip
            src = binding[stmt.src]
            return ("branch", stmt.p_taken, stmt.skip) + tuple(
                slot(TraceRecord(pc, OpClass.BRANCH, src1=src, taken=taken,
                                 target=target))
                for taken in (True, False))
        raise TypeError(f"unknown statement: {stmt!r}")

    def bind(self, arrays, rng):
        """The visit function over private pattern state ``arrays``:
        ``visit(slots, addrs, next_kernel)`` appends one visit."""
        if not self.branches:
            return self._bind_straight(arrays, rng)
        iterations, glue = self.iterations, self.glue

        def draw(pattern):
            # (next_address, region): a RandomRegion's next_address is
            # inlined below, since it dominates the integer kernels.
            if type(pattern) in (RandomRegion, ChaseRegion):
                return None, (pattern.base,
                              pattern.size_bytes // pattern.align,
                              pattern.align)
            return pattern.next_address, None

        def bound(table):
            return [(slots, [0] * len(slots),
                     [(off, *draw(arrays[name])) for off, name in mem],
                     end) for slots, mem, end in table]

        runs = bound(self.runs)
        plan = [runs] * (iterations - 1) + [bound(self.last_runs)]
        body_len = self.body_len
        branches = self.branches
        random = rng.random
        # What RandomRegion.next_address's rng.randrange(n) calls for
        # n > 0: the same draws, minus two Python frames per address.
        randbelow = rng._randbelow

        def visit(slots, addrs, next_kernel):
            for table in plan:
                pos = 0
                while True:
                    run, zeros, mem, end = table[pos]
                    first = len(addrs)
                    slots += run
                    addrs += zeros
                    for off, next_address, region in mem:
                        if region:
                            base, size, align = region
                            addrs[first + off] = base + randbelow(size) * align
                        else:
                            addrs[first + off] = next_address(rng)
                    if end == body_len:
                        break
                    p_taken, skip, taken, not_taken = branches[end]
                    if random() < p_taken:
                        slots.append(taken)
                        pos = end + 1 + skip
                    else:
                        slots.append(not_taken)
                        pos = end + 1
                    addrs.append(0)
            slots.append(glue[next_kernel])
            addrs.append(0)

        return visit

    def _bind_straight(self, arrays, rng):
        """A visit of a kernel without body branches: its slots are
        fixed, so only the addresses vary."""
        iterations, glue = self.iterations, self.glue
        run, mem, _ = self.runs[0]
        period = len(run)
        visit_slots = run * (iterations - 1) + self.last_runs[0][0]
        zeros = [0] * len(visit_slots)
        users = {}
        for _, name in mem:
            users[id(arrays[name])] = users.get(id(arrays[name]), 0) + 1
        # A walk no other load or store advances draws no randomness, so
        # its addresses for the whole visit can be filled at once; every
        # other pattern is called in statement order.
        walks, drawn = [], []
        for off, name in mem:
            pattern = arrays[name]
            if type(pattern) is ArrayWalk and users[id(pattern)] == 1:
                walks.append((off, pattern))
            else:
                drawn.append((off, pattern.next_address))
        starts = range(0, len(visit_slots), period)

        def visit(slots, addrs, next_kernel):
            first = len(addrs)
            slots += visit_slots
            addrs += zeros
            for off, walk in walks:
                walk.fill(addrs, first + off, iterations, period)
            if drawn:
                for start in starts:
                    base = first + start
                    for off, next_address in drawn:
                        addrs[base + off] = next_address(rng)
            slots.append(glue[next_kernel])
            addrs.append(0)

        return visit


class _Emitter:
    """One deterministic walk of a :class:`SyntheticTrace`: the RNG,
    private address-pattern state and the kernel cursor."""

    __slots__ = ("rng", "visits", "weights", "current")

    def __init__(self, trace):
        rng = self.rng = Random(trace.seed)
        kernels = trace.workload.kernels
        # Private pattern state per emitter so that concurrent walks of
        # one workload cannot interfere.
        self.visits = [plan.bind(copy.deepcopy(kernel.arrays), rng)
                       for plan, kernel in zip(trace._kernels, kernels)]
        self.weights = [k.weight for k in kernels]
        self.current = rng.choices(range(len(kernels)), self.weights)[0]

    def fill(self, slots, addrs, count):
        """Append whole kernel visits to the ``slots`` and ``addrs``
        lists until they hold at least ``count`` records."""
        choices = self.rng.choices
        population = range(len(self.visits))
        weights = self.weights
        visits = self.visits
        current = self.current
        while len(slots) < count:
            # The next kernel is drawn before the current visit runs.
            nxt = choices(population, weights)[0]
            visits[current](slots, addrs, nxt)
            current = nxt
        self.current = current


#: Estimated bytes per record of the Python form: its list slot plus a
#: share of the fresh load/store records (static ones are prototypes).
_PYTHON_RECORD_BYTES = 64


class _TraceEntry:
    """Both forms of one cached ``(workload, seed)`` trace prefix.

    The slot and address columns are always built, by the entry's own
    emitter; the Python record list is decoded from them only once a
    Python tier iterates.
    """

    __slots__ = ("key", "table", "emitter", "pending", "slots", "addrs",
                 "records")

    def __init__(self, key, source):
        self.key = key
        self.table = source.table
        self.emitter = _Emitter(source)
        # Emitted past the cached prefix (the rest of a kernel visit).
        self.pending = ([], [])
        self.slots = array(SLOT_CODE)
        self.addrs = array(ADDR_CODE)
        self.records = None

    def nbytes(self):
        size = len(self.slots) * RECORD_BYTES
        if self.records is not None:
            size += len(self.records) * _PYTHON_RECORD_BYTES
        return size

    def grow_columns(self, count):
        need = count - len(self.slots)
        if need <= 0:
            return
        # Published arrays are never resized (views hold their
        # buffers), so a longer prefix gets new arrays.
        slots, addrs = self.slots[:], self.addrs[:]
        new_slots, new_addrs = self.pending
        while need > 0:
            self.emitter.fill(new_slots, new_addrs, min(need, CHUNK))
            take = min(need, len(new_slots))
            slots.fromlist(new_slots[:take])
            addrs.fromlist(new_addrs[:take])
            del new_slots[:take], new_addrs[:take]
            need -= take
        self.slots, self.addrs = slots, addrs

    def grow_records(self, count):
        if self.records is None:
            self.records = []
        records = self.records
        decode = self.table.records
        for start in range(len(records), count, CHUNK):
            end = min(start + CHUNK, count)
            records.extend(decode(self.slots[start:end],
                                  self.addrs[start:end]))


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
        # Serializes mutation: two threads must not drive one emitter.
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
    (decoded on first iteration, for the Python tiers);
    :meth:`columns` is the slot-coded view the native tier reads.
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
        return TraceColumns(entry.slots, entry.addrs, entry.table, skip,
                            count)


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
    :attr:`table` is the workload's slot table.
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
        protos = []
        self._kernels = [
            _Kernel(kernel, binding, base, self._bases, protos)
            for kernel, binding, base
            in zip(workload.kernels, self._bindings, self._bases)
        ]
        self.table = SlotTable(protos)

    def __iter__(self):
        return self._generate()

    def take(self, n):
        """Materialize the first ``n`` records as a list."""
        return list(itertools.islice(iter(self), n))

    def _generate(self):
        emitter = _Emitter(self)
        decode = self.table.records
        while True:
            slots, addrs = [], []
            emitter.fill(slots, addrs, CHUNK)
            yield from decode(slots, addrs)


def take(trace, n):
    """First ``n`` records of any trace iterable."""
    return list(itertools.islice(iter(trace), n))
