"""Executor selection, the warm persistent pool, and trace-affine
pool dispatch."""

import pytest

from repro.engine import (
    PersistentPoolExecutor,
    ProcessPoolExecutor,
    RunSpec,
    SerialExecutor,
    make_executor,
)
from repro.engine.executors import _stream_pool
from repro.uarch.config import conventional_config, virtual_physical_config


def specs(n, workload="go"):
    return [RunSpec(workload, conventional_config()).resolved(300, 50, seed)
            for seed in range(1, n + 1)]


class TestMakeExecutor:
    def test_kind_overrides_job_heuristic(self):
        assert isinstance(make_executor(4, kind="serial"), SerialExecutor)
        assert isinstance(make_executor(1, kind="pool"), ProcessPoolExecutor)
        assert isinstance(make_executor(2, kind="persistent"),
                          PersistentPoolExecutor)

    def test_env_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "persistent")
        assert isinstance(make_executor(2), PersistentPoolExecutor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_executor(2, kind="quantum")


class TestPersistentPool:
    def test_results_identical_to_serial_across_batches(self):
        batch = specs(3)
        serial = SerialExecutor().run(batch)
        with PersistentPoolExecutor(jobs=2) as warm:
            first = warm.run(batch)
            pool_after_first = warm._pool
            second = warm.run(batch)
            # The same pool object served both batches: warm workers.
            assert warm._pool is pool_after_first
            assert pool_after_first is not None
        for got in (first, second):
            assert [r.to_dict() for r in got] == \
                   [r.to_dict() for r in serial]

    def test_single_first_run_stays_serial(self):
        warm = PersistentPoolExecutor(jobs=2)
        result = warm.run(specs(1))
        assert warm._pool is None  # no pool spawned for one spec
        assert result[0].stats.committed == 300
        warm.close()

    def test_close_is_idempotent(self):
        warm = PersistentPoolExecutor(jobs=2)
        warm.run(specs(2))
        warm.close()
        warm.close()
        assert warm._pool is None


def config_major_grid():
    """A ``repro sweep``-shaped grid: every workload per config, with a
    second seed so trace keys differ in seed as well as workload."""
    configs = [conventional_config(), virtual_physical_config(nrr=8)]
    return [RunSpec(workload, config).resolved(400, 60, seed)
            for config in configs
            for workload in ("go", "swim", "li")
            for seed in (1, 2)]


class TestTraceAffineDispatch:
    @pytest.mark.parametrize("make", [
        lambda: ProcessPoolExecutor(jobs=2),
        lambda: PersistentPoolExecutor(jobs=2),
    ], ids=["pool", "persistent"])
    def test_config_major_grid_matches_serial_in_spec_order(self, make):
        grid = config_major_grid()
        serial = SerialExecutor().run(grid)
        executor = make()
        try:
            got = executor.run(grid)
        finally:
            getattr(executor, "close", lambda: None)()
        assert [r.workload for r in got] == [s.workload for s in grid]
        assert [r.to_dict() for r in got] == [r.to_dict() for r in serial]

    def test_stream_pool_submits_points_grouped_by_trace(self):
        class RecordingPool:
            def imap_unordered(self, fn, work):
                self.submitted = list(work)
                return iter([(i, spec.workload)
                             for i, spec in self.submitted])

        grid = config_major_grid()
        pool = RecordingPool()
        streamed = dict(_stream_pool(pool, grid, None, None))
        assert streamed == {i: s.workload for i, s in enumerate(grid)}
        keys = [(spec.workload, spec.seed) for _, spec in pool.submitted]
        # Each trace key is one contiguous run of submissions ...
        runs = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
        assert len(runs) == len(set(keys)) == 6
        # ... in spec order within it (a stable sort on the index).
        for key in set(keys):
            indices = [i for i, spec in pool.submitted
                       if (spec.workload, spec.seed) == key]
            assert indices == sorted(indices)
