"""Synthetic trace generator tests."""

import itertools

import pytest

from repro.isa.opcodes import OpClass, is_branch, is_mem
from repro.trace.generator import SyntheticTrace, take
from repro.trace.patterns import ArrayWalk
from repro.trace.program import (
    CondBranch,
    IntOp,
    Load,
    LoopKernel,
    Store,
    Workload,
)


def simple_workload(iterations=3, p_taken=0.0, skip=0):
    kernel = LoopKernel(
        name="k",
        body=[
            Load("v", "a"),
            IntOp("x", ("v", "x")),
            CondBranch(p_taken=p_taken, skip=skip, src="x"),
            Store("x", "a"),
        ],
        iterations=iterations,
        arrays={"a": ArrayWalk(base=0x1000, length=64, elem_bytes=8)},
    )
    return Workload("test", [kernel], category="int")


class TestDeterminism:
    def test_same_seed_same_stream(self):
        wl = simple_workload(p_taken=0.5)
        a = SyntheticTrace(wl, seed=7).take(200)
        b = SyntheticTrace(wl, seed=7).take(200)
        assert [repr(x) for x in a] == [repr(x) for x in b]

    def test_different_seed_different_stream(self):
        wl = simple_workload(p_taken=0.5)
        a = SyntheticTrace(wl, seed=1).take(200)
        b = SyntheticTrace(wl, seed=2).take(200)
        assert [repr(x) for x in a] != [repr(x) for x in b]

    def test_reiterating_same_object_is_stable(self):
        trace = SyntheticTrace(simple_workload(), seed=3)
        a = [repr(x) for x in trace.take(100)]
        b = [repr(x) for x in trace.take(100)]
        assert a == b

    def test_infinite_stream(self):
        trace = SyntheticTrace(simple_workload(iterations=2), seed=1)
        assert len(take(trace, 5000)) == 5000


class TestStructure:
    def test_loop_shape(self):
        # One visit: iterations x (body + induction + backedge) + glue.
        recs = SyntheticTrace(simple_workload(iterations=3), seed=1).take(30)
        ops = [rec.op for rec in recs[:18]]
        per_iter = [OpClass.LOAD_INT, OpClass.INT_ALU, OpClass.BRANCH,
                    OpClass.STORE_INT, OpClass.INT_ALU, OpClass.BRANCH]
        assert ops == per_iter * 3

    def test_backedge_taken_except_last(self):
        trace = SyntheticTrace(simple_workload(iterations=3), seed=1)
        recs = trace.take(18)
        # The back-edge branch sits right after the 4-statement body and
        # the induction update: body start + 5 slots.
        backedge_pc = trace._bases[0] + 4 * 5
        backedges = [rec for rec in recs if rec.pc == backedge_pc]
        assert [b.taken for b in backedges] == [True, True, False]

    def test_glue_branch_jumps_to_a_kernel(self):
        trace = SyntheticTrace(simple_workload(iterations=2), seed=1)
        recs = trace.take(13)
        glue = recs[-1]
        assert is_branch(glue.op) and glue.taken
        assert glue.target in trace._bases

    def test_control_flow_consistency(self):
        """next_pc of each record equals the pc of the next record."""
        recs = SyntheticTrace(
            simple_workload(iterations=4, p_taken=0.5, skip=1), seed=9
        ).take(500)
        for cur, nxt in zip(recs, recs[1:]):
            assert cur.next_pc == nxt.pc, (cur, nxt)

    def test_taken_body_branch_skips_statements(self):
        wl = simple_workload(iterations=2, p_taken=1.0, skip=1)
        recs = SyntheticTrace(wl, seed=1).take(10)
        ops = [r.op for r in recs[:5]]
        # The store after the always-taken branch is skipped.
        assert OpClass.STORE_INT not in ops

    def test_addresses_come_from_patterns(self):
        recs = SyntheticTrace(simple_workload(iterations=4), seed=1).take(24)
        mem = [r for r in recs if is_mem(r.op)]
        assert all(0x1000 <= r.addr < 0x1000 + 64 * 8 for r in mem)

    @pytest.mark.parametrize("length, stride", [(5, 1), (7, 1), (6, 2),
                                                 (5, -1), (9, 4)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_walk_addresses_follow_the_pattern_across_wraps(
            self, length, stride, shared):
        # Branch-free kernels fill a walk's addresses a visit at a time;
        # they must equal the pattern's own sequence, wraps included
        # (5 elements, 3 per visit: the second visit ends on the last).
        body = [Load("v", "a"), IntOp("x", ("v", "x"))]
        if shared:  # a second user of the walk: addresses interleave
            body.append(Store("x", "a"))
        kernel = LoopKernel(name="k", body=body, iterations=3, arrays={
            "a": ArrayWalk(base=0x1000, length=length, elem_bytes=8,
                           stride=stride)})
        recs = SyntheticTrace(Workload("w", [kernel], category="int"),
                              seed=1).take(300)
        addrs = [r.addr for r in recs if is_mem(r.op)]
        walk = ArrayWalk(base=0x1000, length=length, elem_bytes=8,
                         stride=stride)
        assert addrs == [walk.next_address(None) for _ in addrs]

    def test_too_large_kernel_rejected(self):
        body = [IntOp(f"v{i % 8}", (f"v{i % 8}",)) for i in range(2000)]
        kernel = LoopKernel(name="big", body=body, iterations=1)
        with pytest.raises(ValueError):
            SyntheticTrace(Workload("w", [kernel], category="int"), seed=1)


class TestMultiKernel:
    def test_kernels_interleave_by_weight(self):
        k1 = LoopKernel(name="a", body=[IntOp("x", ("x",))], iterations=1,
                        weight=1.0)
        k2 = LoopKernel(name="b", body=[IntOp("y", ("y",))], iterations=1,
                        weight=1.0)
        wl = Workload("two", [k1, k2], category="int")
        trace = SyntheticTrace(wl, seed=5)
        recs = trace.take(4000)
        base_a, base_b = trace._bases
        visits_a = sum(1 for r in recs if r.pc == base_a)
        visits_b = sum(1 for r in recs if r.pc == base_b)
        assert visits_a > 100 and visits_b > 100
        assert 0.5 < visits_a / visits_b < 2.0

    def test_kernel_pc_regions_disjoint(self):
        k1 = LoopKernel(name="a", body=[IntOp("x", ("x",))], iterations=2)
        k2 = LoopKernel(name="b", body=[IntOp("y", ("y",))], iterations=2)
        wl = Workload("two", [k1, k2], category="int")
        trace = SyntheticTrace(wl, seed=5)
        assert trace._bases[1] - trace._bases[0] >= 0x1000
