"""The native tier on slot-coded traces: refusals, C warm-up, user traces.

Registry workloads reach the C loop through the materialized-trace
cache's columns; every other record iterable goes through one
``TraceColumns.from_records`` encoding.  Both must match the
interpreter bit for bit, with and without a warm-up prefix.
"""

import pytest

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.trace.generator import SyntheticTrace, materialized_trace
from repro.trace.kernels import reduction_kernel, streaming_kernel
from repro.trace.program import Workload
from repro.trace.workloads import load_workload
from repro.uarch import native
from repro.uarch.config import conventional_config, virtual_physical_config
from repro.uarch.processor import Processor

needs_cc = pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")


def _alu(base, n):
    return [TraceRecord(base + 4 * i, OpClass.INT_ALU, dest=1, src1=2)
            for i in range(n)]


#: A store without its value source, between two runs of ALU ops.
BAD_STORE = TraceRecord(0x2000, OpClass.STORE_INT, src1=3, addr=0x1000)
STORE_TRACE = _alu(0x1000, 20) + [BAD_STORE] + _alu(0x3000, 20)


def _run(config, engine, trace, n, skip):
    processor = Processor(config, engine=engine)
    result = processor.run(trace, max_instructions=n, skip=skip)
    return processor, result.stats.to_dict()


def test_store_missing_src_falls_back_loudly():
    """The C loop cannot model a store without its value source: the
    run is refused before anything executes, the reason recorded and
    the fallback counted, and the next tier fails exactly as the
    interpreter does."""
    with pytest.raises(IndexError):
        _run(conventional_config(), "interp", STORE_TRACE, 100, 0)
    native.clear_cache()
    processor = Processor(conventional_config(), engine="native")
    with pytest.raises(IndexError):
        processor.run(STORE_TRACE, max_instructions=100)
    assert native.build_failures == {"store-missing-src": 1}
    assert processor.engine_used == "compiled"
    assert processor.stats.engine_fallbacks == 1


@needs_cc
def test_store_missing_src_in_the_warm_up_prefix_runs_natively():
    skip = len(_alu(0, 20)) + 1  # the bad store is only warmed
    native.clear_cache()
    processor, stats = _run(conventional_config(), "native", STORE_TRACE,
                            100, skip)
    assert processor.engine_used == "native", native.build_failures
    assert stats == _run(conventional_config(), "interp", STORE_TRACE,
                         100, skip)[1]


def _custom_workload():
    return Workload("custom-mix", [
        streaming_kernel("stream", footprint_kb=64, iterations=48),
        reduction_kernel("reduce", iterations=32),
    ], category="fp")


@needs_cc
@pytest.mark.parametrize("skip", [0, 700])
@pytest.mark.parametrize("config", [
    conventional_config(),
    virtual_physical_config(nrr=8),
], ids=["conventional", "vp-wb-nrr8"])
def test_non_registry_workload_matches_interp(config, skip):
    workload = _custom_workload()
    native.clear_cache()
    processor, stats = _run(config, "native", SyntheticTrace(workload, 9),
                            3_000, skip)
    assert processor.engine_used == "native", native.build_failures
    assert stats["engine_fallbacks"] == 0
    _, expected = _run(config, "interp", SyntheticTrace(workload, 9),
                       3_000, skip)
    assert stats == expected


@needs_cc
@pytest.mark.parametrize("skip", [0, 1_500])
def test_cached_trace_warm_up_in_c_matches_interp(skip):
    trace = materialized_trace(load_workload("swim"), 11, skip + 4_000)
    config = virtual_physical_config(nrr=16)
    processor, stats = _run(config, "native", trace, 4_000, skip)
    assert processor.engine_used == "native", native.build_failures
    assert stats == _run(config, "interp", trace, 4_000, skip)[1]
