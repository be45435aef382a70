"""Pluggable executors for the batch engine.

An executor takes a list of resolved :class:`~repro.engine.spec.RunSpec`
objects and returns their :class:`~repro.uarch.stats.SimResult`\\ s in
the same order, invoking an optional ``progress(done, total, spec)``
callback as runs finish.

* :class:`SerialExecutor` runs in-process — deterministic call stacks,
  ideal for debugging and for single-run batches.
* :class:`ProcessPoolExecutor` fans out over a ``multiprocessing`` pool
  sized from :func:`os.cpu_count` (or ``REPRO_JOBS``).  Each simulation
  is fully seeded and shares no mutable state, so parallel results are
  identical to serial ones.
* :class:`PersistentPoolExecutor` keeps one warm worker pool alive
  across batches, so a session of many small grids (interactive sweeps,
  experiment suites sharing a cache) pays the process-spawn cost once
  instead of per batch.  Call :meth:`~PersistentPoolExecutor.close`
  (or use it as a context manager) when done; an ``atexit`` hook cleans
  up otherwise.
* :class:`~repro.engine.remote.RemoteExecutor` (in
  :mod:`repro.engine.remote`) fans batches out across ``repro worker``
  daemons on other hosts — the cluster-scale backend behind
  ``--executor remote``.

:func:`make_executor` maps the CLI/environment selection
(``--executor`` / ``REPRO_EXECUTOR`` / ``--workers`` /
``REPRO_WORKERS``) onto these classes.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time

from repro.engine.faults import fault, fault_delay
from repro.obs.profile import attach_profile
from repro.uarch.processor import simulate


def default_jobs():
    """Pool size: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def default_run_timeout():
    """Per-spec stall timeout: ``REPRO_RUN_TIMEOUT`` seconds, or None."""
    env = os.environ.get("REPRO_RUN_TIMEOUT")
    if env:
        value = float(env)
        return value if value > 0 else None
    return None


def execute_spec(spec):
    """Run one resolved spec to completion (the executor work unit).

    Carries the ``exec.hang`` (sleep before simulating — exercises the
    pool stall timeouts) and ``exec.die`` (the executing process
    hard-exits, like an OOM-killed pool worker) chaos sites; both are
    inert without an active :class:`~repro.engine.faults.FaultPlan`.

    With ``REPRO_PROFILE`` set, a profile dict (wall-clock, KIPS,
    stall composition) is attached to the result's ``extra`` — see
    :mod:`repro.obs.profile`; the default path is untouched.
    """
    if fault("exec.die"):
        os._exit(3)
    if fault("exec.hang"):
        time.sleep(fault_delay("exec.hang", 60.0))
    started = time.perf_counter()
    result = simulate(
        spec.config,
        workload=spec.workload,
        max_instructions=spec.instructions,
        skip=spec.skip,
        seed=spec.seed,
    )
    return attach_profile(result, time.perf_counter() - started)


def _pool_worker(indexed_spec):
    index, spec = indexed_spec
    return index, execute_spec(spec)


def run_from_iter(executor, specs, progress=None):
    """Collect an executor's :meth:`run_iter` stream into spec order.

    The shared ``run()`` implementation for executors whose native
    operation is streaming: results are identical to a barrier run
    because every work unit is fully seeded.
    """
    results = [None] * len(specs)
    for index, result in executor.run_iter(specs, progress=progress):
        results[index] = result
    return results


class SerialExecutor:
    """Runs every spec in the calling process, in order."""

    jobs = 1

    def run(self, specs, progress=None):
        """Simulate each spec in submission order; results match it."""
        return run_from_iter(self, specs, progress=progress)

    def run_iter(self, specs, progress=None):
        """Yield ``(index, result)`` pairs as each run completes.

        Serial execution completes specs in submission order, so the
        stream is simply ordered.
        """
        for index, spec in enumerate(specs):
            yield index, execute_spec(spec)
            if progress:
                progress(index + 1, len(specs), spec)


def _trace_key(indexed_spec):
    spec = indexed_spec[1]
    return spec.workload, -1 if spec.seed is None else spec.seed


def _stream_pool(pool, specs, progress, run_timeout, on_stall=None):
    """Drain ``imap_unordered`` with an optional per-result stall bound.

    Work is submitted grouped by trace, ``(workload, seed)``, keeping
    spec order within a group: consecutive points that share a trace go
    to the same workers, which then reuse it from their materialized
    trace cache instead of regenerating it (a config-major grid would
    otherwise hand each worker a different trace every point).  Results
    carry their spec index, so callers see no difference.

    ``run_timeout`` (seconds) caps how long the *next* result may take
    to arrive: one wedged simulation (or a pool worker that died
    without reporting, which ``multiprocessing.Pool`` never notices)
    raises :class:`RuntimeError` instead of hanging the grid forever.
    ``on_stall`` runs first, so a persistent pool can terminate its
    wedged workers before the error propagates.
    """
    done = 0
    results = pool.imap_unordered(
        _pool_worker, sorted(enumerate(specs), key=_trace_key))
    while True:
        try:
            if run_timeout:
                index, result = results.next(timeout=run_timeout)
            else:
                index, result = next(results)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            if on_stall:
                on_stall()
            raise RuntimeError(
                f"pool stalled: no simulation finished within "
                f"{run_timeout:g}s ({len(specs) - done} of {len(specs)} "
                f"point(s) outstanding)") from None
        done += 1
        yield index, result
        if progress:
            progress(done, len(specs), specs[index])


class ProcessPoolExecutor:
    """Fans specs out over a ``multiprocessing.Pool``.

    Falls back to serial execution when the batch (or the pool) has a
    single entry, so tiny batches never pay process-spawn overhead.
    ``run_timeout`` (default ``REPRO_RUN_TIMEOUT`` / ``--run-timeout``)
    bounds how long the next result may take before the run fails
    loudly instead of hanging on a wedged or dead worker.
    """

    def __init__(self, jobs=None, run_timeout=None):
        self.jobs = jobs or default_jobs()
        self.run_timeout = (run_timeout if run_timeout is not None
                            else default_run_timeout())

    def run(self, specs, progress=None):
        """Simulate the specs on a fresh pool; results in spec order."""
        return run_from_iter(self, specs, progress=progress)

    def run_iter(self, specs, progress=None):
        """Yield ``(index, result)`` pairs in completion order.

        Results stream off the pool as workers finish, so a caller can
        forward each one (e.g. to an HTTP stream) while later specs are
        still simulating.
        """
        if self.jobs <= 1 or len(specs) <= 1:
            yield from SerialExecutor().run_iter(specs, progress=progress)
            return
        with multiprocessing.Pool(min(self.jobs, len(specs))) as pool:
            # The with-block terminates the pool on a stall error.
            yield from _stream_pool(pool, specs, progress,
                                    self.run_timeout)


class PersistentPoolExecutor:
    """A ``multiprocessing.Pool`` that survives across batches.

    The pool is created lazily on the first parallel batch and reused by
    every subsequent one, so a stream of small grids amortizes worker
    spawn (and interpreter warm-up) once.  Results are identical to the
    per-batch pool: work units are fully seeded and stateless.
    """

    def __init__(self, jobs=None, run_timeout=None):
        self.jobs = jobs or default_jobs()
        self.run_timeout = (run_timeout if run_timeout is not None
                            else default_run_timeout())
        self._pool = None
        self._atexit_registered = False

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(self.jobs)
            if not self._atexit_registered:
                # Once per executor, however many close/reuse cycles.
                atexit.register(self.close)
                self._atexit_registered = True
        return self._pool

    def run(self, specs, progress=None):
        """Simulate the specs on the warm pool; results in spec order."""
        return run_from_iter(self, specs, progress=progress)

    def run_iter(self, specs, progress=None):
        """Yield ``(index, result)`` pairs in completion order."""
        if self.jobs <= 1 or (len(specs) <= 1 and self._pool is None):
            # Serial fallback; never spawn a pool for a single first run.
            yield from SerialExecutor().run_iter(specs, progress=progress)
            return
        pool = self._ensure_pool()
        yield from _stream_pool(pool, specs, progress, self.run_timeout,
                                on_stall=self._terminate)

    def _terminate(self):
        """Kill a wedged pool so the next batch gets a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()

    def close(self):
        """Shut the warm pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


#: Executor registry for ``--executor`` / ``REPRO_EXECUTOR``.
EXECUTOR_KINDS = ("serial", "pool", "persistent", "remote")


def make_executor(jobs=None, kind=None, workers=None, heartbeat=None,
                  retries=None, connect_timeout=None, run_timeout=None,
                  on_cluster_loss=None):
    """The executor a job count, kind, and worker list imply.

    ``kind`` is one of :data:`EXECUTOR_KINDS` (default: the
    ``REPRO_EXECUTOR`` environment variable, else jobs-based — serial
    for one job, a per-batch pool otherwise).  Naming ``workers``
    (a ``host[:port],...`` list, or the ``REPRO_WORKERS`` environment
    variable for ``kind="remote"``) selects the distributed
    :class:`~repro.engine.remote.RemoteExecutor`, which fans batches
    out across ``repro worker --serve`` daemons.  ``heartbeat``,
    ``retries``, ``connect_timeout``, and ``on_cluster_loss`` tune that
    backend's fault handling (defaults: ``REPRO_HEARTBEAT`` /
    ``REPRO_RETRIES`` / ``REPRO_CONNECT_TIMEOUT`` /
    ``REPRO_ON_CLUSTER_LOSS``, then 5s / 3 / 5s / fallback).
    ``run_timeout`` bounds one spec's run everywhere it can: the pool
    executors treat it as a stall timeout, the remote backend as the
    per-chunk request timeout.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Precedence: explicit kind > explicit workers (implies remote) >
    # REPRO_EXECUTOR > jobs-based default.  A --workers flag must not
    # be silently overridden by a leftover environment variable.
    if kind is None and workers:
        kind = "remote"
    if kind is None:
        kind = os.environ.get("REPRO_EXECUTOR") or None
    if kind is None:
        kind = "serial" if jobs == 1 else "pool"
    if kind == "serial":
        return SerialExecutor()
    if kind == "pool":
        return ProcessPoolExecutor(jobs, run_timeout=run_timeout)
    if kind == "persistent":
        return PersistentPoolExecutor(jobs, run_timeout=run_timeout)
    if kind == "remote":
        from repro.engine.remote import RemoteExecutor

        workers = workers or os.environ.get("REPRO_WORKERS")
        extra = {}
        if run_timeout:
            extra["run_timeout"] = run_timeout
        return RemoteExecutor(workers, heartbeat_interval=heartbeat,
                              max_task_attempts=retries,
                              connect_timeout=connect_timeout,
                              on_cluster_loss=on_cluster_loss, **extra)
    raise ValueError(
        f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}")
