"""One benchmark process: set a workload up, time it, check it.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``, a fresh
``REPRO_CACHE_DIR`` and every other ``REPRO_*`` variable cleared, and
reads the lines it prints that start with ``PERFBENCH``::

    PERFBENCH {"ready": true}      set-up done; timing starts now
    PERFBENCH {"timed_done": true} the timed phase is over
    PERFBENCH {"report": {...}}    the timed phase and its checks

Modes: ``setup`` stops after set-up (``run.py`` times several set-ups
and reports their median), ``measure`` times the workload untraced and
then checks its results, ``traced`` installs the tracer, replays the
first ``--jobs`` jobs of the same seed and reports per-layer metrics
and spans instead of checking.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import random
import subprocess
import sys
import threading
import time

import plan
from repro.analysis.reports import harmonic_mean
from repro.engine import (
    BatchEngine,
    ResultStore,
    SerialExecutor,
    code_version,
    make_executor,
)
from repro.experiments import paper_data
from repro.service import Gateway, GatewayClient, JobJournal
from repro.trace.generator import clear_materialized_traces
from repro.uarch import native
from repro.uarch.compiled import resolve_engine
from repro.uarch.processor import Processor

MARK = "PERFBENCH "
#: Points per workload re-run on the interpreter after the timed phase.
ORACLE_SAMPLE = {"sweep": 4, "deep": 1, "serve": 4, "paper": 2}
#: Serve jobs re-run on a serial engine after the timed phase.
SERIAL_SAMPLE = 6
#: Seconds a serve client waits on the gateway before the job fails.
CLIENT_TIMEOUT = 60.0


def emit(message):
    print(MARK + json.dumps(message), flush=True)


def digest(stats):
    """Identity of one result's complete ``SimStats`` dict."""
    blob = json.dumps(stats, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def summary(stats):
    """What the harness keeps of one result: its digest and the fields
    the checks read (small, so the timed phase's heap stays the
    system's own)."""
    return {"digest": digest(stats), "committed": stats["committed"],
            "cycles": stats["cycles"],
            "engine_fallbacks": stats["engine_fallbacks"]}


def expected_tier(spec, point):
    """The tier an untraced point ran on, as its stats imply."""
    if point["engine_fallbacks"]:
        return "fallback"
    return resolve_engine(spec.config.engine)


class Nullspan:
    """Stands in for :meth:`Tracer.span` in the untraced run."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


# -- set-up ----------------------------------------------------------------


def _build(config):
    _, reason = native.build_library(Processor(config))
    return reason


def _build_traced(config):
    return TRACER.in_child(_build, config)


TRACER = None  # the Tracer in traced mode (read by pool workers)


def setup(args, state):
    """Everything a user pays before the workload's first result; fills
    ``state`` as it goes, so a failed set-up can still be torn down."""
    cc = native.toolchain()
    if cc is None:
        raise SystemExit("perfbench: no working C compiler "
                         "(repro.uarch.native.toolchain() is None); the "
                         "native workloads cannot run")
    configs = [config for _, config in plan.workload_configs(args.workload)
               if resolve_engine(config.engine) == "native"]
    if configs:
        worker = _build if TRACER is None else _build_traced
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(os.cpu_count() or 1, len(configs))) as pool:
            outcomes = pool.map(worker, configs, chunksize=1)
        if TRACER is not None:
            reasons = [reason for reason, _ in outcomes]
            for _, spans in outcomes:
                TRACER.spans.extend(spans)
        else:
            reasons = outcomes
        failed = [r for r in reasons if r is not None]
        if failed:
            raise SystemExit(f"perfbench: native build failed: {failed}")
    state["cc"] = cc
    if args.workload == "serve":
        count = plan.serve_job_count(args.seconds)
        if args.jobs is not None:
            count = min(count, args.jobs)
        jobs = [plan.serve_job(args.seed, i) for i in range(count)]
        warmup = [plan.serve_job(plan.derive_seed(args.seed, "warm-up"), i)
                  for i in range(plan.SERVE_WARMUP_JOBS)]
        preload = [spec for specs, flags in warmup + jobs
                   for spec, stored in zip(specs, flags) if stored]
        # A separate engine, as an earlier client's jobs would have.
        BatchEngine(executor=make_executor(), store=ResultStore()).run(
            preload)
        # What `repro serve --executor persistent` builds: one warm
        # pool for the server's life, so no round pays (or races) a
        # fresh fork of its workers.
        engine = BatchEngine(executor=make_executor(kind="persistent"),
                             store=ResultStore())
        gateway = Gateway(engine=engine, journal=JobJournal())
        state.update(jobs=jobs, handle=gateway.serve_in_thread(),
                     executor=engine.executor)
    # The timed phase starts with an empty trace LRU and library cache,
    # so pool workers forked from here (serve's at its warm-up) inherit
    # nothing warm.
    clear_materialized_traces()
    native.clear_cache()
    if args.workload == "serve":
        warm_up(state["handle"], warmup)


def warm_up(handle, jobs):
    """Serve ``jobs`` untimed: the pool forks and its workers load the
    native libraries before the first timed job, as in a running server."""
    host, port = handle.address
    client = GatewayClient(f"http://{host}:{port}", timeout=CLIENT_TIMEOUT)
    for specs, _ in jobs:
        client.run(specs)  # raises if the job fails


# -- the timed phase -------------------------------------------------------


def time_batch(args, spans):
    """Run grid after grid (fresh seeds, cold store) for ``--seconds``."""
    jobs = []
    started = time.perf_counter()
    for index in itertools.count():
        if args.jobs is not None:
            if index >= args.jobs:
                break
        elif time.perf_counter() - started >= args.seconds:
            break
        specs = plan.batch_job(args.workload, args.seed, index)
        results, error = [None] * len(specs), None
        with spans.span("bench.job", index=index):
            t0 = time.perf_counter()
            try:
                # What `repro sweep` / `repro table2` build per call.
                engine = BatchEngine(executor=make_executor(),
                                     store=ResultStore())
                results = engine.run(specs)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        jobs.append({"specs": specs, "start": t0, "latency": latency,
                     "error": error,
                     "points": [r and summary(r.stats.to_dict())
                                for r in results],
                     "executed": [True] * len(specs)})
    return jobs, time.perf_counter() - started


def time_serve(args, state, spans):
    """A closed loop of :data:`plan.SERVE_CLIENTS` clients, one job in
    flight each."""
    host, port = state["handle"].address
    url = f"http://{host}:{port}"
    todo = state["jobs"]
    jobs = [None] * len(todo)
    counter = itertools.count()
    lock = threading.Lock()

    def client_loop():
        client = GatewayClient(url, timeout=CLIENT_TIMEOUT)
        while True:
            with lock:
                index = next(counter)
            if index >= len(todo):
                return
            specs, flags = todo[index]
            points, error = [None] * len(specs), None
            with spans.span("bench.job", index=index):
                t0 = time.perf_counter()
                try:
                    job = client.submit(specs)
                    for event in client.stream(job["id"],
                                               timeout=CLIENT_TIMEOUT):
                        if event.get("event") == "point":
                            points[event["index"]] = summary(
                                event["result"]["stats"])
                        elif (event.get("event") == "end"
                              and event.get("state") != "done"):
                            error = f"job ended {event.get('state')}"
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            jobs[index] = {"specs": specs, "start": t0, "latency": latency,
                           "points": points, "error": error,
                           "executed": [not f for f in flags]}

    client = GatewayClient(url, timeout=CLIENT_TIMEOUT)
    before = client.metrics()
    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(plan.SERVE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    after = client.metrics()
    delta = {"rounds": after["rounds"] - before["rounds"],
             "points": (after["points_executed"] + after["points_cached"]
                        - before["points_executed"]
                        - before["points_cached"])}
    return jobs, wall, delta


# -- checks ----------------------------------------------------------------


def _interp(spec):
    return dataclasses.replace(spec, config=spec.config.with_(
        engine="interp"))


def table2_err(stats):
    """|simulated Table 2 hmean improvement - 19| in percentage points,
    from a :func:`plan.table2_grid` run's stats dicts."""
    ipc = [s["committed"] / s["cycles"] for s in stats]
    improvement = 100.0 * (harmonic_mean(ipc[1::2])
                           / harmonic_mean(ipc[0::2]) - 1.0)
    return abs(improvement - paper_data.TABLE2_HMEAN_IMPROVEMENT_PCT)


def check(args, jobs):
    """Failed operations (points, or jobs for serve) and why, plus
    ``table2_err_pts``."""
    native_tier = args.workload in plan.NATIVE_WORKLOADS
    bad = {}  # (job, point or None) -> reason

    def fail(job_index, point, reason):
        key = (job_index, None if args.workload == "serve" else point)
        bad.setdefault(key, reason)

    points = []
    for j, job in enumerate(jobs):
        if job["error"] and args.workload == "serve":
            fail(j, None, job["error"])
        for p, (spec, point) in enumerate(zip(job["specs"],
                                              job["points"])):
            if point is None:
                fail(j, p, job["error"] or "no result")
                continue
            points.append((j, p))
            if point["committed"] != spec.instructions:
                fail(j, p, f"committed {point['committed']} != "
                           f"{spec.instructions}")
            if native_tier and point["engine_fallbacks"]:
                fail(j, p, "native tier fell back")

    rng = random.Random(plan.derive_seed(args.seed, "oracle"))
    candidates = [(j, p) for j, p in points if jobs[j]["executed"][p]]
    sample = rng.sample(candidates,
                        min(ORACLE_SAMPLE[args.workload], len(candidates)))
    # One pool run: the oracle points first (the longest), then, off
    # the paper workload, Table 2 on the native tier.
    table2 = ([] if args.workload == "paper"
              else plan.table2_grid(engine="native"))
    results = BatchEngine(executor=make_executor()).run(
        [_interp(jobs[j]["specs"][p]) for j, p in sample] + table2)
    for (j, p), result in zip(sample, results):
        if digest(result.stats.to_dict()) != jobs[j]["points"][p]["digest"]:
            fail(j, p, "differs from the interp oracle")
    if table2:
        # Bit-identical tiers by contract: every workload reports one
        # number unless the tiers diverge.
        err = table2_err([r.stats.to_dict()
                          for r in results[len(sample):]])
    else:  # paper's seed-1234 job, on the default tier
        err = table2_err(jobs[0]["points"])

    if args.workload == "serve":
        chosen = rng.sample(range(len(jobs)), min(SERIAL_SAMPLE, len(jobs)))
        serial = BatchEngine(executor=SerialExecutor())
        for j in chosen:
            for p, result in enumerate(serial.run(jobs[j]["specs"])):
                point = jobs[j]["points"][p]
                if (point is None
                        or digest(result.stats.to_dict()) != point["digest"]):
                    fail(j, None, "differs from a serial BatchEngine run")
                    break
    return bad, err


# -- main ------------------------------------------------------------------


def host_info(cc):
    """What a report's numbers depend on besides the code."""
    version = subprocess.run([cc, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cc": version[0] if version else cc,
            "code_version": code_version()}


def run(args, ready=lambda: None, timed_done=lambda: None):
    """Set up, call ``ready()``, time, call ``timed_done()``, check; the
    report (or ``None`` in setup mode)."""
    global TRACER
    TRACER, spans = None, Nullspan()
    if args.mode == "traced":
        import tracer

        TRACER = spans = tracer.Tracer().install()
    state = {}
    try:
        setup(args, state)
        ready()
        if args.mode == "setup":
            return None
        if TRACER is not None:
            TRACER.phase = "timed"
        delta = None
        if args.workload == "serve":
            jobs, wall, delta = time_serve(args, state, spans)
        else:
            jobs, wall = time_batch(args, spans)
        timed_done()
    finally:
        if "handle" in state:
            state["handle"].stop()
            state["executor"].close()
        if TRACER is not None:
            TRACER.uninstall()
    report = {
        "jobs": len(jobs),
        "wall_s": wall,
        "starts": [job["start"] for job in jobs],
        "latencies": [job["latency"] for job in jobs],
        "job_committed": [sum(point["committed"] for point, ran
                              in zip(job["points"], job["executed"])
                              if ran and point is not None)
                          for job in jobs],
        "digests": [point and point["digest"]
                    for job in jobs for point in job["points"]],
        "host": host_info(state["cc"]),
    }
    if TRACER is not None:
        import tracer

        builds = len(list(native.artifact_dir().glob("engine-*.so")))
        report["tiers"] = tracer.tier_counts(TRACER.spans)
        report["layers"] = tracer.layer_metrics(TRACER.spans, builds, delta)
        if args.spans_out:
            with open(args.spans_out, "w") as out:
                json.dump({"host": report["host"],
                           "workload": args.workload, "seed": args.seed,
                           "layers": report["layers"],
                           "targets": {name: target for name, _, _, target
                                       in tracer.LAYER_METRICS},
                           "spans": TRACER.spans}, out)
        return report
    tiers = report["tiers"] = {}
    for job in jobs:
        for spec, point, ran in zip(job["specs"], job["points"],
                                    job["executed"]):
            if ran and point is not None:
                tier = expected_tier(spec, point)
                tiers[tier] = tiers.get(tier, 0) + 1
    bad, report["table2_err_pts"] = check(args, jobs)
    report["attempted"] = sum(
        1 if args.workload == "serve" else len(job["specs"])
        for job in jobs)
    report["failed"] = len(bad)
    report["failures"] = sorted(
        f"job {j} point {p}: {why}" for (j, p), why in bad.items())[:10]
    return report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--jobs", type=int, default=None,
                        help="replay exactly this many jobs")
    parser.add_argument("--spans-out", default=None,
                        help="traced mode: write spans and metrics here")
    return parser.parse_args(argv)


def main(argv=None):
    report = run(parse_args(argv), ready=lambda: emit({"ready": True}),
                 timed_done=lambda: emit({"timed_done": True}))
    if report is not None:
        emit({"report": report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
