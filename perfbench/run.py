"""The repository benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload {sweep,deep,serve,paper} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every workload goes through the entry
points users call (``BatchEngine`` + ``make_executor`` + ``ResultStore``
as ``repro sweep``/``repro table2`` build them; ``Gateway`` +
``GatewayClient`` as ``repro serve``/``repro submit`` use them), each
in a fresh ``perfbench/harness.py`` process with a fresh
``REPRO_CACHE_DIR`` under ``perfbench/.work/`` and every other
``REPRO_*`` variable cleared.

``--trace 0`` sets the workload up :data:`SETUPS` times (the median is
``setup_s``), times the last set-up's workload for ``--seconds``,
checks the results and prints the end-to-end metrics.  ``--trace 1``
times the workload untraced, then replays the same jobs with the
layer wrappers of ``perfbench/tracer.py`` installed, fails unless both
runs produced identical stats digests and tier counts with no native
fallback, and prints the per-layer metrics; the spans go to
``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A run that cannot
complete exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MARK = "PERFBENCH "
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget of one run, all child processes included.
DEADLINE_S = 170.0
#: Serve jobs per window of the timed phase (two passes over the
#: benchmark pairs of ``plan.SERVE_PAIRS``).
SERVE_WINDOW = 72

END_TO_END = {
    "setup_s": "s",
    "sim_kips": "KIPS",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "peak_rss_mb": "MB",
    "table2_err_pts": "pts",
}


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class RssSampler:
    """Peak of the summed resident memory of one process and its
    children (the harness and its pool workers), sampled from ``/proc``
    by a thread of this process, so the measured one runs unobserved."""

    def __init__(self, pid, interval=0.05):
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _rss_kb(pid):
        try:
            with open(f"/proc/{pid}/statm") as statm:
                pages = int(statm.read().split()[1])
        except (OSError, IndexError, ValueError):
            return 0  # the process just exited
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)

    def sample(self):
        total = self._rss_kb(self.pid)
        try:
            tasks = os.listdir(f"/proc/{self.pid}/task")
        except OSError:
            tasks = []
        for task in tasks:
            try:
                with open(f"/proc/{self.pid}/task/{task}/children") as kids:
                    children = kids.read().split()
            except OSError:
                continue
            total += sum(self._rss_kb(child) for child in children)
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self):
        self.sample()
        self._thread.start()

    def stop(self):
        """Stop sampling; the peak in MB."""
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


def child_env(cache):
    """The harness environment: no inherited ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, mode, work, deadline, extra=()):
    """Run one harness process; returns ``(setup seconds, report)``, the
    report carrying the timed phase's ``peak_rss_mb``."""
    cache = Path(tempfile.mkdtemp(prefix=f"cache-{mode}-", dir=work))
    command = [sys.executable, str(HERE / "harness.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode, *extra]
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=child_env(cache),
                             stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                             child.kill)
    killer.start()
    rss = RssSampler(child.pid)
    setup_s = report = peak_mb = None
    try:
        for line in child.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)  # keep stdout's last line ours
                continue
            message = json.loads(line[len(MARK):])
            if "ready" in message:
                setup_s = time.perf_counter() - started
                if mode != "setup":
                    rss.start()
            elif "timed_done" in message:
                peak_mb = rss.stop()
            else:
                report = message["report"]
        code = child.wait()
    finally:
        rss.stop()
        killer.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    shutil.rmtree(cache, ignore_errors=True)
    if code != 0 or setup_s is None or (mode != "setup" and report is None):
        raise BenchError(f"harness --mode {mode} failed (exit {code})")
    if report is not None:
        report["peak_rss_mb"] = peak_mb
    return setup_s, report


def window_metrics(starts, latencies, committed):
    """``sim_kips``, ``jobs_per_s`` and the latency percentiles of one
    stretch of back-to-back serve jobs."""
    wall = max(s + t for s, t in zip(starts, latencies)) - min(starts)
    return {"sim_kips": sum(committed) / wall / 1e3,
            "jobs_per_s": len(latencies) / wall,
            "job_p50_s": percentile(latencies, 50),
            "job_p95_s": percentile(latencies, 95)}


def end_to_end(workload, setups, report):
    latencies = report["latencies"]
    committed = report["job_committed"]
    if workload == "serve":
        # Each metric is the median over consecutive windows of
        # SERVE_WINDOW jobs, so a burst of host noise that slows a few
        # seconds of the run does not move it.
        starts = report["starts"]
        windows = [window_metrics(starts[i:i + SERVE_WINDOW],
                                  latencies[i:i + SERVE_WINDOW],
                                  committed[i:i + SERVE_WINDOW])
                   for i in range(0, max(1, len(latencies)
                                         - SERVE_WINDOW + 1),
                                  SERVE_WINDOW)]
        values = {name: statistics.median(w[name] for w in windows)
                  for name in windows[0]}
    else:  # back-to-back jobs: the median job, robust to a noisy one
        values = {"sim_kips": statistics.median(
                      c / t for c, t in zip(committed, latencies)) / 1e3,
                  "jobs_per_s": report["jobs"] / report["wall_s"],
                  "job_p50_s": percentile(latencies, 50),
                  "job_p95_s": percentile(latencies, 95)}
    values.update(setup_s=statistics.median(setups),
                  peak_rss_mb=report["peak_rss_mb"],
                  table2_err_pts=report["table2_err_pts"])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(untraced, traced):
    """The traced run's layer metrics, or a reason it does not count."""
    problems = []
    if traced["digests"] != untraced["digests"]:
        problems.append("stats digests differ from the untraced run")
    if traced["tiers"] != untraced["tiers"]:
        problems.append(f"tier counts {traced['tiers']} != untraced "
                        f"{untraced['tiers']}")
    if traced["layers"]["native.fallbacks"]:
        problems.append("native fallbacks in the traced run")
    layers = dict(traced["layers"])
    layers["harness.trace_overhead"] = (traced["wall_s"]
                                        / untraced["wall_s"] - 1.0)
    units = layer_units()
    return {name: {"value": layers[name], "unit": units[name]}
            for name in units}, problems


def layer_units():
    with open(ROOT / "BENCHMARK.json") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "deep", "serve", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace == 0:
            setups = [run_child(args, "setup", work, deadline)[0]
                      for _ in range(SETUPS - 1)]
            setup_s, report = run_child(args, "measure", work, deadline)
            setups.append(setup_s)
            metrics = end_to_end(args.workload, setups, report)
            problems = report["failures"]
        else:
            _, report = run_child(args, "measure", work, deadline)
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            spans = out / f"trace-{args.workload}-seed{args.seed}.json"
            _, traced = run_child(
                args, "traced", work, deadline,
                ("--jobs", str(report["jobs"]), "--spans-out", str(spans)))
            metrics, problems = per_layer(report, traced)
            problems = report["failures"] + problems
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"host": report["host"], "tiers": report["tiers"],
                      "jobs": report["jobs"],
                      "latencies": report["latencies"]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
