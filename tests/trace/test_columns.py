"""The slot-coded trace format and the two-form materialized-trace cache."""

import sys
import threading

import pytest

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.trace.columns import FIELDS, RECORD_BYTES, TraceColumns
from repro.trace import generator
from repro.trace.generator import (
    SyntheticTrace,
    clear_materialized_traces,
    materialized_trace,
)
from repro.trace.workloads import WORKLOADS, load_workload

N = 4_000


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_materialized_traces()
    yield
    clear_materialized_traces()


def _field(record, name):
    value = getattr(record, name)
    return int(bool(value)) if name == "taken" else int(value)


def _decoded(columns):
    """Every field of ``columns``, decoded through its slot table."""
    return {name: [int(bool(v)) if name == "taken" else int(v)
                   for v in values]
            for name, values in columns.fields().items()}


def assert_columns_match(columns, records):
    decoded = _decoded(columns)
    assert all(len(values) >= len(records) for values in decoded.values())
    for name in FIELDS:
        expected = [_field(record, name) for record in records]
        assert decoded[name][:len(records)] == expected, name


@pytest.mark.parametrize("seed", [1234, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cached_columns_equal_generated_records(workload, seed):
    trace = materialized_trace(load_workload(workload), seed, N)
    assert len(trace) == N
    expected = SyntheticTrace(load_workload(workload), seed).take(N)
    assert_columns_match(trace.columns(), expected)
    # The Python form decodes to the generator's record stream.
    assert [repr(r) for r in trace] == [repr(r) for r in expected]


def test_growth_keeps_the_prefix_and_published_arrays():
    workload = load_workload("swim")
    short = materialized_trace(workload, 3, 1_000)
    short_arrays = (short.columns().slots, short.columns().addrs)
    short_records = list(short)
    snapshot = [list(column) for column in short_arrays]

    long = materialized_trace(workload, 3, 3_000)
    long_arrays = (long.columns().slots, long.columns().addrs)
    assert len(long) == 3_000
    # Published arrays are never resized: the earlier view still holds
    # the same buffers, and the grown entry extends the same stream.
    assert [list(column) for column in short_arrays] == snapshot
    for column, before in zip(long_arrays, snapshot):
        assert list(column[:1_000]) == before
    assert_columns_match(long.columns(),
                         SyntheticTrace(workload, 3).take(3_000))
    long_records = list(long)
    assert all(a is b for a, b in zip(short_records, long_records))
    assert len(list(short)) == 1_000  # a view keeps its own length


def test_views_share_both_forms_until_cleared():
    workload = load_workload("go")
    first = materialized_trace(workload, 5, N)
    slots, records = first.columns().slots, list(first)

    again = materialized_trace(workload, 5, N)
    assert again.columns().slots is slots
    assert all(a is b for a, b in zip(list(again), records))

    clear_materialized_traces()
    rebuilt = materialized_trace(workload, 5, N)
    assert rebuilt.columns().slots is not slots
    rebuilt_records = list(rebuilt)
    # Loads and stores are fresh objects per generation: regenerated.
    assert any(a is not b for a, b in zip(rebuilt_records, records))
    assert [repr(r) for r in rebuilt_records] == [repr(r) for r in records]


def test_column_view_skip_and_limit():
    trace = materialized_trace(load_workload("li"), 1, 1_000)
    view = trace.columns(skip=100, limit=500)
    assert (view.skip, len(view)) == (100, 500)
    view = trace.columns(skip=400, limit=5_000)
    assert (view.skip, len(view)) == (400, 600)
    view = trace.columns(skip=2_000)
    assert len(view) == 0


def test_from_records_matches_fields_and_clips_skip():
    records = SyntheticTrace(load_workload("compress"), 2).take(500)
    columns = TraceColumns.from_records(records, skip=50)
    assert (columns.skip, len(columns)) == (50, 450)
    assert_columns_match(columns, records)
    assert len(TraceColumns.from_records(records[:10], skip=50)) == 0


def test_store_missing_src_respects_the_warm_up_prefix():
    alu = [TraceRecord(0x100 + 4 * i, OpClass.INT_ALU, dest=1, src1=2)
           for i in range(10)]
    bad = TraceRecord(0x200, OpClass.STORE_INT, src1=3, addr=0x1000)
    records = alu + [bad] + alu
    assert TraceColumns.from_records(records).store_missing_src()
    assert TraceColumns.from_records(records, skip=10).store_missing_src()
    # Only warmed, never simulated: the C warm-up reads no sources.
    assert not TraceColumns.from_records(records,
                                         skip=11).store_missing_src()
    full = TraceColumns.from_records(records)
    assert not TraceColumns(full.slots, full.addrs, full.table, 0,
                            10).store_missing_src()


def test_registry_traces_have_no_store_missing_src():
    for workload in sorted(WORKLOADS):
        trace = materialized_trace(load_workload(workload), 1234, N)
        assert not trace.columns().store_missing_src(), workload


def test_view_bounds_are_checked():
    columns = TraceColumns.from_records(
        SyntheticTrace(load_workload("go"), 1).take(10))
    with pytest.raises(ValueError):
        TraceColumns(columns.slots, columns.addrs, columns.table, 5, 6)


def test_lru_is_bounded_by_bytes(monkeypatch):
    cache = generator._MATERIALIZED
    monkeypatch.setattr(cache, "max_bytes", 2_500 * RECORD_BYTES)

    def cached():
        assert cache.nbytes == sum(e.nbytes() for e in cache.entries.values())
        return [key[0] for key in cache.entries]

    for name in ("go", "li", "swim"):
        materialized_trace(load_workload(name), 1, 1_000)
    assert cached() == ["li", "swim"]  # 3,000 records > 2,500: go left
    materialized_trace(load_workload("li"), 1, 500)  # a hit refreshes
    materialized_trace(load_workload("compress"), 1, 1_000)
    assert cached() == ["li", "compress"]
    # The Python form counts too: building it here evicts li.
    list(materialized_trace(load_workload("compress"), 1, 1_000))
    assert cached() == ["compress"]
    # The most recent entry stays, however large.
    materialized_trace(load_workload("vortex"), 1, 5_000)
    assert cached() == ["vortex"]


def test_concurrent_views_see_consistent_traces():
    """Threads growing one entry at once must each see exactly the
    generator's stream: growth is serialized and published arrays are
    never resized under a reader."""
    workload = load_workload("li")
    n = 6_000
    expected = SyntheticTrace(workload, 4).take(n)
    fields = {name: [_field(r, name) for r in expected] for name in FIELDS}
    errors = []

    def worker(k):
        try:
            for count in range(400 + 150 * k, n + 1, 900):
                trace = materialized_trace(workload, 4, count)
                decoded = _decoded(trace.columns())
                for name, want in fields.items():
                    assert decoded[name][:count] == want[:count]
                if k % 2:
                    assert all(a is b or repr(a) == repr(b)
                               for a, b in zip(trace, expected))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
