"""KIPS throughput measurement for the cycle engine.

The unit is **KIPS** — thousands of *simulated* (committed) instructions
per wall-clock second.  Each measured point runs one workload under one
renamer configuration straight through :func:`repro.uarch.processor
.simulate` — in-process, serial, no result cache — ``repeats`` times and
keeps the median, so the numbers measure the engine rather than the
batch machinery in front of it.

Entry points:

* :func:`measure_kips` — run a grid, return the report dict.
* :func:`trace_build_ns` — cold-cache cost of building one trace, in
  nanoseconds per record; every report carries it per workload.
* :func:`compare_to_baseline` — regression check against a previously
  written report (the CI perf-smoke job fails on >30% regression, of
  the KIPS median and, when the baseline records it, of the median
  trace-build throughput).
* ``python -m repro bench`` — the CLI wrapper; writes
  ``BENCH_engine.json`` so the throughput trajectory is tracked in-repo.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.trace.generator import (
    clear_materialized_traces,
    materialized_trace,
)
from repro.trace.workloads import WORKLOADS, load_workload
from repro.uarch.config import policy_config
from repro.uarch.processor import simulate

#: The measured renamer policies by default: the paper's baseline and
#: its proposed scheme (write-back allocation, NRR=32).  Any registry
#: policy name is accepted by ``measure_kips(schemes=...)``.
DEFAULT_SCHEMES = ("conventional", "vp-writeback")


def scheme_config(label):
    """Build the config a policy-registry name selects (KeyError with
    the registered names for a typo)."""
    return policy_config(label)


def trace_build_ns(workload, count, seed=1234, repeats=3):
    """Median cold-cache cost of building ``workload``'s first ``count``
    trace records (the slot-coded columns every tier starts from), in
    nanoseconds per record.  Leaves that trace cached."""
    times = []
    for _ in range(repeats):
        clear_materialized_traces()
        model = load_workload(workload)
        t0 = time.perf_counter()
        materialized_trace(model, seed, count)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) / count * 1e9, 1)


def measure_kips(workloads=None, schemes=None, instructions=30_000,
                 skip=3_000, seed=1234, repeats=3, progress=None,
                 engine=None):
    """Measure KIPS for every workload × scheme point.

    ``engine`` selects the cycle-engine tier for every point
    (``"interp"`` / ``"compiled"`` / ``"native"``; default ``None``
    keeps the config's ``"auto"``, deferring to ``REPRO_ENGINE``).
    Each workload's trace is first built ``repeats`` times from a cold
    cache (:func:`trace_build_ns`); the points then run on it warm.
    Returns a JSON-compatible report::

        {"unit": "KIPS", "instructions": ..., "repeats": ...,
         "runs": {"swim/conventional": {"kips": ..., "seconds": ...,
                                        "committed": ..., "cycles": ...}},
         "median_kips": ..., "total_seconds": ...,
         "trace_build_ns": {"swim": ...}, "median_trace_build_ns": ...}
    """
    workloads = list(workloads) if workloads else sorted(WORKLOADS)
    schemes = list(schemes) if schemes else list(DEFAULT_SCHEMES)
    runs = {}
    build_ns = {}
    started = time.perf_counter()
    total = len(workloads) * len(schemes)
    done = 0
    for workload in workloads:
        build_ns[workload] = trace_build_ns(workload, skip + instructions,
                                            seed, repeats)
        for label in schemes:
            config = scheme_config(label)
            if engine:
                config = config.with_(engine=engine)
            times = []
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = simulate(config, workload=workload,
                                  max_instructions=instructions,
                                  skip=skip, seed=seed)
                times.append(time.perf_counter() - t0)
            seconds = statistics.median(times)
            runs[f"{workload}/{label}"] = {
                "kips": round(result.stats.committed / seconds / 1000, 1),
                "seconds": round(seconds, 4),
                "committed": result.stats.committed,
                "cycles": result.stats.cycles,
                "ipc": round(result.ipc, 3),
                # Port-model provenance: a point measured with the
                # register-file contention model on can never be
                # confused with (or gated against) a port-free one.
                "regfile": config.port_model(),
                # Engine provenance: codegen fallbacks on a compiled-
                # tier run mean the point silently measured the
                # interpreter — surfaced, never hidden.
                "engine_fallbacks": result.stats.engine_fallbacks,
            }
            done += 1
            if progress:
                progress(done, total, f"{workload}/{label}")
    from repro.engine.version import code_version

    return {
        "unit": "KIPS (thousand simulated instructions / second)",
        "instructions": instructions,
        "skip": skip,
        "seed": seed,
        "repeats": repeats,
        "engine": engine or "auto",
        "runs": runs,
        "median_kips": round(statistics.median(
            r["kips"] for r in runs.values()), 1),
        "trace_build_ns": build_ns,
        "median_trace_build_ns": round(statistics.median(
            build_ns.values()), 1),
        "total_seconds": round(time.perf_counter() - started, 2),
        # Provenance: which simulator build produced these numbers (the
        # same fingerprint that qualifies result-store keys).
        "code_version": code_version(),
    }


def measure_engines(workloads=None, schemes=None, instructions=30_000,
                    skip=3_000, seed=1234, repeats=3, progress=None,
                    engines=("interp", "compiled")):
    """Engine-tier A/B: the same grid under every tier in ``engines``.

    Returns the *last* tier's report shape (so ``format_report`` and
    baseline gating keep working) extended with the per-tier
    sub-reports and per-point speedups of the last tier over the
    first — e.g. ``engines=("interp", "compiled", "native")`` reports
    native-over-interp speedups with all three tiers' runs attached::

        {..., "engines": {"interp": {...}, "compiled": {...},
                          "native": {...}},
         "speedup": {"li/conventional": 1.81, ...},
         "median_speedup": ...}

    Speedups are *measured wall-clock ratios on this machine* —
    recorded for trend tracking, not gated in CI (the differential
    suite gates correctness; machines vary too much to gate speed).
    """
    reports = {}
    for engine in engines:
        reports[engine] = measure_kips(
            workloads=workloads, schemes=schemes, instructions=instructions,
            skip=skip, seed=seed, repeats=repeats, progress=progress,
            engine=engine)
    baseline, improved = engines[0], engines[-1]
    speedup = {
        key: round(reports[improved]["runs"][key]["kips"]
                   / max(run["kips"], 1e-9), 2)
        for key, run in reports[baseline]["runs"].items()
    }
    combined = dict(reports[improved])
    combined["engine"] = "+".join(engines)
    combined["engines"] = reports
    combined["speedup"] = speedup
    combined["median_speedup"] = round(
        statistics.median(speedup.values()), 2)
    return combined


def compare_to_baseline(report, baseline, max_regression=0.30):
    """Regression check of ``report`` against a ``baseline`` report.

    Compares the overall ``median_kips`` (per-point numbers are too noisy
    across machines) and, when both reports carry it, the
    ``median_trace_build_ns``: the same rule in throughput terms, so a
    build may take up to ``1 / (1 - max_regression)`` times the
    baseline's nanoseconds per record.  Returns ``(ok, message)``.
    Refuses to gate when the two reports measured different
    register-file port-model configurations for the same point — a
    port-enabled baseline is a different machine, not a slower one.
    """
    base = baseline.get("median_kips")
    current = report.get("median_kips")
    if not base:
        return True, "baseline has no median_kips; nothing to compare"
    for key, run in report.get("runs", {}).items():
        other = baseline.get("runs", {}).get(key)
        if other is None or "regfile" not in run or "regfile" not in other:
            continue  # point not shared, or a pre-provenance report
        if run["regfile"] != other["regfile"]:
            return False, (f"port-model mismatch on {key}: report "
                           f"{run['regfile']} vs baseline "
                           f"{other['regfile']}; not comparable")
    floor = base * (1.0 - max_regression)
    ratio = current / base
    ok = current >= floor
    message = (f"median {current:.1f} KIPS vs baseline {base:.1f} KIPS "
               f"({ratio:.2f}x, floor {floor:.1f})")
    base_ns = baseline.get("median_trace_build_ns")
    current_ns = report.get("median_trace_build_ns")
    if base_ns and current_ns:
        ceiling = base_ns / (1.0 - max_regression)
        ok = ok and current_ns <= ceiling
        message += (f"; trace build {current_ns:.1f} ns/record vs baseline "
                    f"{base_ns:.1f} (ceiling {ceiling:.1f})")
    return ok, message


def load_report(path):
    """Read a previously written report (the baseline-gate input)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_report(path, report):
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def format_report(report):
    """Human-readable table of a :func:`measure_kips` (or
    :func:`measure_engines` A/B) report."""
    speedup = report.get("speedup")
    lines = [f"{'point':28s} {'KIPS':>8s} {'IPC':>6s} {'seconds':>8s}"
             + ("  speedup" if speedup else "")]
    for key in sorted(report["runs"]):
        run = report["runs"][key]
        line = (f"{key:28s} {run['kips']:8.1f} {run['ipc']:6.3f} "
                f"{run['seconds']:8.3f}")
        if speedup:
            line += f"  {speedup.get(key, 0):6.2f}x"
        lines.append(line)
    lines.append(f"{'median':28s} {report['median_kips']:8.1f}")
    if "median_trace_build_ns" in report:
        lines.append(f"{'trace build, ns/record':28s} "
                     f"{report['median_trace_build_ns']:8.1f}")
    if speedup:
        lines.append(f"{'median speedup':28s} "
                     f"{report['median_speedup']:7.2f}x")
    return "\n".join(lines)
