"""The benchmark's own tests: plans, metric names, tiny runs.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import collections
import json
import re
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

import harness
import plan
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {"SWEEP_LENGTH": (600, 60), "DEEP_LENGTH": (1_500, 150),
        "SERVE_LENGTH": (400, 40), "PRELOAD_LENGTH": (200, 20),
        "PAPER_LENGTH": (400, 40), "SERVE_MIN_JOBS": 3,
        "SERVE_JOBS_PER_SECOND": 1, "SERVE_WARMUP_JOBS": 1}


def keys(specs):
    return [spec.key() for spec in specs]


@pytest.mark.parametrize("workload", ["sweep", "deep", "paper"])
def test_seed_determines_batch_grids(workload):
    first = keys(plan.batch_job(workload, 7, 1))
    assert first == keys(plan.batch_job(workload, 7, 1))
    assert first != keys(plan.batch_job(workload, 8, 1))
    assert first != keys(plan.batch_job(workload, 7, 2))
    assert len(set(first)) == len(first)


def test_seed_determines_serve_jobs():
    specs, flags = plan.serve_job(7, 3)
    assert keys(specs) == keys(plan.serve_job(7, 3)[0])
    assert keys(specs) != keys(plan.serve_job(8, 3)[0])
    assert len(specs) == 8 and flags.count(True) == 4
    every = [key for i in range(50) for key in keys(plan.serve_job(7, i)[0])]
    assert len(set(every)) == len(every)  # each point requested once


def test_serve_jobs_cover_every_benchmark_pair_equally():
    pairs = collections.Counter(
        tuple(sorted({spec.workload for spec in plan.serve_job(7, i)[0]}))
        for i in range(plan.SERVE_MIN_JOBS))
    assert set(pairs) == {tuple(sorted(p)) for p in plan.SERVE_PAIRS}
    assert set(pairs.values()) == {plan.SERVE_MIN_JOBS
                                   // len(plan.SERVE_PAIRS)}
    assert plan.SERVE_MIN_JOBS % run.SERVE_WINDOW == 0


def test_serve_metrics_are_window_medians():
    window = run.SERVE_WINDOW
    latencies = [0.01] * (3 * window)
    latencies[window:2 * window] = [0.05] * window  # one noisy stretch
    starts = [sum(latencies[:i]) for i in range(len(latencies))]
    report = {"latencies": latencies, "starts": starts,
              "job_committed": [1000] * len(latencies),
              "peak_rss_mb": 1.0, "table2_err_pts": 1.0}
    metrics = run.end_to_end("serve", [1.0, 2.0, 3.0], report)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(100.0)
    assert metrics["job_p95_s"]["value"] == pytest.approx(0.01)
    assert metrics["sim_kips"]["value"] == pytest.approx(100.0)
    assert metrics["setup_s"]["value"] == 2.0


def test_paper_first_job_is_repro_table2():
    assert keys(plan.batch_job("paper", 99, 0)) == keys(plan.table2_grid())
    assert all(spec.config.engine == "auto"
               for spec in plan.batch_job("paper", 99, 3))


def test_sweep_grid_is_config_major():
    specs = plan.batch_job("sweep", 1, 0)
    assert len(specs) == 81
    assert [s.label for s in specs[:9]] == ["conventional"] * 9


def test_metric_names_parse():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in tracer.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_percentile():
    assert run.percentile([3.0], 95) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile(list(range(101)), 95) == 95


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Native artifacts shared by every tiny run (built once)."""
    return tmp_path_factory.mktemp("native")


@pytest.fixture
def tiny(monkeypatch, tmp_path, artifacts):
    """Tiny plans and a fresh cache per run, with prebuilt artifacts."""
    for name, value in TINY.items():
        monkeypatch.setattr(plan, name, value)
    for name in ("REPRO_ENGINE", "REPRO_EXECUTOR", "REPRO_JOBS",
                 "REPRO_PROFILE", "REPRO_FAULTS", "REPRO_TELEMETRY"):
        monkeypatch.delenv(name, raising=False)

    def go(workload, mode, jobs=1):
        cache = tmp_path / uuid.uuid4().hex
        shutil.copytree(artifacts, cache / "native")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        args = argparse.Namespace(workload=workload, seed=5, seconds=1.0,
                                  mode=mode, jobs=jobs, spans_out=None)
        report = harness.run(args)
        for built in (cache / "native").glob("engine-*.so"):
            if not (artifacts / built.name).exists():
                shutil.copy(built, artifacts / built.name)
        return report
    return go


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_tiny_run_is_correct_and_traced_run_matches(tiny, workload):
    report = tiny(workload, "measure")
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 1 and report["jobs"] == 1
    tier = "interp" if workload == "paper" else "native"
    assert set(report["tiers"]) == {tier}
    assert report["table2_err_pts"] >= 0
    traced = tiny(workload, "traced", jobs=report["jobs"])
    assert traced["digests"] == report["digests"]
    assert traced["tiers"] == report["tiers"]
    layers = traced["layers"]
    assert layers["native.fallbacks"] == 0
    assert set(layers) | {"harness.trace_overhead"} == {
        name for name, *_ in tracer.LAYER_METRICS}
    assert layers["trace.records_generated"] > 0
    assert layers["store.gets"] > 0
    if workload == "serve":
        assert layers["gateway.rounds"] > 0
        assert 0 < layers["store.hit_ratio"] < 1
    if workload == "paper":
        assert layers["processor.interp_kips"] > 0
    else:
        assert layers["native.execute_s"] > 0


def test_tracer_restores_every_patch():
    from repro.engine import core, executors
    from repro.uarch import native, processor

    before = (core.BatchEngine.run_specs_iter, executors.execute_spec,
              native.execute, processor.Processor.run)
    spans = tracer.Tracer().install()
    assert executors.execute_spec is not before[1]
    spans.uninstall()
    assert (core.BatchEngine.run_specs_iter, executors.execute_spec,
            native.execute, processor.Processor.run) == before


def test_check_counts_a_mismatch(tiny, monkeypatch):
    jobs = []
    real = harness.time_batch

    def keep(args, spans):
        out = real(args, spans)
        jobs.extend(out[0])
        return out
    monkeypatch.setattr(harness, "time_batch", keep)
    tiny("sweep", "measure")
    args = argparse.Namespace(workload="sweep", seed=5)
    assert harness.check(args, jobs)[0] == {}
    jobs[0]["points"][0] = dict(jobs[0]["points"][0], digest="0" * 16)
    monkeypatch.setattr(harness, "ORACLE_SAMPLE", {"sweep": 81})
    assert list(harness.check(args, jobs)[0]) == [(0, 0)]


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
