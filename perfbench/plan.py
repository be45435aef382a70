"""The exact grids each benchmark workload runs, derived from its seed.

Every workload is a stream of *jobs*: one call of the public entry point
a user makes.  A batch job is one ``BatchEngine.run`` grid (what ``repro
sweep`` / ``repro table2`` build); a serve job is one ``GatewayClient``
submission (what ``repro submit`` sends).  Job ``i`` of a workload is a
pure function of ``(benchmark seed, i)``, so a traced replay of the
first ``n`` jobs runs exactly the untraced run's work.

Imports ``repro``: only the harness process (with ``src`` on its path)
and the benchmark's tests load this module.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from repro.engine import RunSpec
from repro.experiments.runner import ALL_BENCHMARKS
from repro.uarch.config import (
    AllocationStage,
    conventional_config,
    virtual_physical_config,
)

WORKLOADS = ("sweep", "deep", "serve", "paper")
#: Workloads whose configs request the native tier explicitly.
NATIVE_WORKLOADS = ("sweep", "deep", "serve")

SWEEP_LENGTH = (30_000, 3_000)  # (instructions, skip) per point
DEEP_LENGTH = (300_000, 30_000)
DEEP_BENCHMARKS = ("swim", "go")
SERVE_LENGTH = (4_000, 400)  # the simulated half of a serve job
PRELOAD_LENGTH = (200, 20)  # the store-read half (length is free)
PAPER_LENGTH = (30_000, 3_000)  # repro table2's defaults
#: The first paper job runs at the seed ``repro table2`` reports, so
#: ``table2_err_pts`` is the number a user sees.
PAPER_SEED = 1234
#: Serve client threads.  One job in flight at a time makes every
#: gateway round exactly one job, so round composition (and with it
#: latency) does not depend on how the host schedules competing
#: clients.
SERVE_CLIENTS = 1
#: Every serve job simulates one pair of benchmarks; each run of
#: ``len(SERVE_PAIRS)`` consecutive jobs covers every pair once, in an
#: order drawn from the seed, so all seeds run the same mix of work.
SERVE_PAIRS = tuple(itertools.combinations(ALL_BENCHMARKS, 2))
#: Serve jobs per second of ``--seconds`` (about what the closed loop
#: completes on a 2-core host) and the floor: twenty passes over the
#: pairs, which keeps a burst of host noise a small share of the run.
SERVE_JOBS_PER_SECOND = 60
SERVE_MIN_JOBS = 20 * len(SERVE_PAIRS)
#: Untimed serve jobs run at the end of set-up.
SERVE_WARMUP_JOBS = 4

_NRRS = (1, 8, 16, 32)
_ALLOCATIONS = (AllocationStage.WRITEBACK, AllocationStage.ISSUE)


def derive_seed(seed, *parts):
    """A simulation seed in ``[1, 2**31)`` from the benchmark seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return 1 + int.from_bytes(digest[:8], "big") % (2 ** 31 - 1)


def _vp(nrr, allocation, **changes):
    return virtual_physical_config(nrr=nrr, allocation=allocation,
                                   **changes)


def sweep_configs():
    """``repro sweep``'s columns: conventional + allocation x NRR."""
    columns = [("conventional", conventional_config(engine="native"))]
    for allocation in _ALLOCATIONS:
        for nrr in _NRRS:
            columns.append((f"{allocation.value}/nrr={nrr}",
                            _vp(nrr, allocation, engine="native")))
    return columns


def deep_configs():
    """Conventional, write-back NRR {8, 32}, issue NRR 32, and two
    register-file port/bank model variants: six native builds."""
    wb = AllocationStage.WRITEBACK
    keep = ("conventional", "writeback/nrr=8", "writeback/nrr=32",
            "issue/nrr=32")
    columns = [(label, config) for label, config in sweep_configs()
               if label in keep]
    variants = [
        ("rf/ports=8x4", _vp(32, wb, engine="native", rf_model=True,
                             rf_read_ports=8, rf_write_ports=4)),
        ("rf/banks=4", _vp(32, wb, engine="native", rf_model=True,
                           rf_banks=4, rf_bank_read_ports=2,
                           rf_bank_write_ports=1)),
    ]
    return columns + variants


def serve_configs():
    """Table 2's two machines on the native tier."""
    return table2_configs(engine="native")


def table2_configs(engine="auto"):
    """Table 2's machines; ``auto`` is the tier a user gets by default."""
    return [("conventional", conventional_config(engine=engine)),
            ("writeback/nrr=32", _vp(32, AllocationStage.WRITEBACK,
                                     engine=engine))]


def workload_configs(workload):
    """Every config a workload's timed phase runs (its build set)."""
    return {
        "sweep": sweep_configs,
        "deep": deep_configs,
        "serve": serve_configs,
        "paper": table2_configs,
    }[workload]()


def _grid(columns, benches, length, seed):
    instructions, skip = length
    # Config-major, exactly as ``repro sweep`` orders its grid.
    return [RunSpec(bench, config, label=label, instructions=instructions,
                    skip=skip, seed=seed)
            for label, config in columns for bench in benches]


def table2_grid(seed=PAPER_SEED, engine="auto"):
    """``run_table2``'s grid, benchmark-major (conventional, VP)."""
    conv, virt = table2_configs(engine)
    instructions, skip = PAPER_LENGTH
    return [RunSpec(bench, config, label=label, instructions=instructions,
                    skip=skip, seed=seed)
            for bench in ALL_BENCHMARKS for label, config in (conv, virt)]


def batch_job(workload, seed, index):
    """Job ``index`` of a batch workload: one grid of resolved specs."""
    if workload == "sweep":
        return _grid(sweep_configs(), ALL_BENCHMARKS, SWEEP_LENGTH,
                     derive_seed(seed, "sweep", index))
    if workload == "deep":
        return _grid(deep_configs(), DEEP_BENCHMARKS, DEEP_LENGTH,
                     derive_seed(seed, "deep", index))
    if workload == "paper":
        return table2_grid(PAPER_SEED if index == 0
                           else derive_seed(seed, "paper", index))
    raise ValueError(f"not a batch workload: {workload!r}")


def serve_job_count(seconds):
    """How many jobs the serve closed loop submits for ``--seconds``."""
    return max(SERVE_MIN_JOBS, int(seconds * SERVE_JOBS_PER_SECOND))


def serve_job(seed, index):
    """Job ``index`` of serve: ``(specs, preloaded flags)``.

    Half the points are preloaded into the store during set-up (each
    requested once, so a store read, never a memo hit); the other half
    use fresh seeds and simulate.
    """
    columns = serve_configs()
    rounds, position = divmod(index, len(SERVE_PAIRS))
    order = random.Random(derive_seed(seed, "serve-pairs", rounds)) \
        .sample(range(len(SERVE_PAIRS)), len(SERVE_PAIRS))
    benches = SERVE_PAIRS[order[position]]
    pre = _grid(columns, benches, PRELOAD_LENGTH,
                derive_seed(seed, "serve-pre", index))
    fresh = _grid(columns, benches, SERVE_LENGTH,
                  derive_seed(seed, "serve-fresh", index))
    specs, flags = [], []
    for stored, simulated in zip(pre, fresh):
        specs += [stored, simulated]
        flags += [True, False]
    return specs, flags
