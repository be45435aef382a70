"""Smoke coverage for the KIPS harness.

These run tiny instruction budgets — they validate the harness shape
and plumbing, not absolute throughput.  The CI perf-smoke job runs the
real budgets through ``python -m repro bench`` and gates on
``baseline.json``.
"""

import json
import pathlib

import pytest

from repro import perf
from repro.cli import main

BASELINE = pathlib.Path(__file__).parent / "baseline.json"
NATIVE_BASELINE = pathlib.Path(__file__).parent / "baseline_native.json"


class TestMeasureKips:
    def test_report_shape(self):
        report = perf.measure_kips(workloads=["go"],
                                   schemes=["conventional"],
                                   instructions=2_000, skip=200, repeats=1)
        run = report["runs"]["go/conventional"]
        assert run["kips"] > 0
        assert run["committed"] == 2_000
        assert report["median_kips"] == run["kips"]
        assert report["repeats"] == 1
        assert report["trace_build_ns"]["go"] > 0
        assert report["median_trace_build_ns"] == \
            report["trace_build_ns"]["go"]

    def test_multiple_points_and_median(self):
        report = perf.measure_kips(workloads=["go", "swim"],
                                   schemes=["conventional", "vp-writeback"],
                                   instructions=1_000, skip=100, repeats=1)
        assert len(report["runs"]) == 4
        kips = sorted(r["kips"] for r in report["runs"].values())
        assert kips[0] <= report["median_kips"] <= kips[-1]

    def test_unknown_scheme_rejected(self):
        import pytest

        # The registry's one unknown-policy error, listing known names.
        with pytest.raises(KeyError, match="unknown renaming policy"):
            perf.scheme_config("magic")

    def test_any_registry_policy_is_benchable(self):
        from repro.core.policy import policy_names

        for name in policy_names():
            assert perf.scheme_config(name).policy == name

    def test_report_records_port_model(self):
        report = perf.measure_kips(workloads=["go"],
                                   schemes=["conventional"],
                                   instructions=1_000, skip=100, repeats=1)
        regfile = report["runs"]["go/conventional"]["regfile"]
        assert regfile["model"] is False
        assert regfile["read_ports"] == 16


class TestBaselineGate:
    def test_port_model_mismatch_refused(self):
        """A port-enabled baseline is a different machine — the gate
        must refuse the comparison, not report a regression."""
        free = {"median_kips": 100.0, "runs": {
            "go/conventional": {"kips": 100.0,
                                "regfile": {"model": False}}}}
        ported = {"median_kips": 100.0, "runs": {
            "go/conventional": {"kips": 100.0,
                                "regfile": {"model": True}}}}
        ok, message = perf.compare_to_baseline(free, ported)
        assert not ok and "port-model mismatch" in message
        # Pre-provenance baselines (no regfile key) still compare.
        legacy = {"median_kips": 100.0, "runs": {
            "go/conventional": {"kips": 100.0}}}
        ok, _ = perf.compare_to_baseline(free, legacy)
        assert ok

    def test_regression_detected(self):
        baseline = {"median_kips": 100.0}
        ok, _ = perf.compare_to_baseline({"median_kips": 65.0}, baseline,
                                         max_regression=0.30)
        assert not ok
        ok, _ = perf.compare_to_baseline({"median_kips": 75.0}, baseline,
                                         max_regression=0.30)
        assert ok

    def test_trace_build_regression_detected(self):
        baseline = {"median_kips": 100.0, "median_trace_build_ns": 70.0}
        fast = {"median_kips": 100.0}
        ok, message = perf.compare_to_baseline(
            dict(fast, median_trace_build_ns=101.0), baseline,
            max_regression=0.30)
        assert not ok and "trace build" in message
        ok, _ = perf.compare_to_baseline(
            dict(fast, median_trace_build_ns=99.0), baseline,
            max_regression=0.30)
        assert ok
        # A baseline without the figure gates KIPS alone.
        ok, _ = perf.compare_to_baseline(
            dict(fast, median_trace_build_ns=1e9), {"median_kips": 100.0})
        assert ok

    @pytest.mark.parametrize("path, engine", [
        (BASELINE, "interp"), (NATIVE_BASELINE, "native")])
    def test_committed_baseline_is_valid(self, path, engine):
        baseline = json.loads(path.read_text())
        assert baseline["median_kips"] > 0
        assert baseline["runs"]
        assert baseline["engine"] == engine
        if engine == "native":  # CI gates its trace build too
            assert baseline["median_trace_build_ns"] > 0


class TestBenchCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--workloads", "go",
                   "--schemes", "conventional",
                   "-n", "1500", "--skip", "150", "--repeats", "1",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert "go/conventional" in report["runs"]
        assert "median" in capsys.readouterr().out

    def test_bench_gate_failure_returns_nonzero(self, tmp_path, capsys):
        fake = tmp_path / "baseline.json"
        fake.write_text(json.dumps({"median_kips": 10_000_000.0}))
        rc = main(["bench", "--workloads", "go",
                   "--schemes", "conventional",
                   "-n", "1000", "--skip", "100", "--repeats", "1",
                   "--out", "", "--baseline", str(fake), "--quiet"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
