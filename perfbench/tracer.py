"""Spans around the public calls into each layer, for the traced run.

:meth:`Tracer.install` replaces module attributes and class attributes
with timing wrappers — never an attribute of an instance, because the
simulator reinterprets an instance-patched ``Processor._step`` as a
request for the interpreter tier.  Each span records its name, start,
end, parent span, process and the phase of the harness (``setup`` or
``timed``).  Spans stay in memory; a pool worker ships the spans of one
``execute_spec`` call back on the result it returns, and the wrapped
executor ``run_iter`` adopts them as its children.

Generator calls (``run_specs_iter``, ``run_iter``, ``stream``) are open
from their first resume to exhaustion; their *active* time counts only
the resumes, so a consumer's work between two yields is not charged to
them.  A layer's self time is its span's duration minus the union of
its same-process children, the definition :func:`layer_metrics` uses.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import operator
import os
import statistics
import threading
import time

from repro.engine import core as _core
from repro.engine import executors as _executors
from repro.engine import store as _store
from repro.service import client as _client
from repro.trace import generator as _generator
from repro.uarch import native as _native
from repro.uarch import processor as _processor

#: Result attribute carrying a pool worker's spans back to the parent.
_SHIPPED = "_perfbench_spans"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local_pid = os.getpid()
        self._root_pid = os.getpid()
        self._counters = []  # one per SyntheticTrace iteration
        self._undo = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        if os.getpid() != self._local_pid:
            # A forked pool worker: the parent's open spans are not ours.
            self._local = threading.local()
            self._local_pid = os.getpid()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name, attrs=None):
        stack = self._stack()
        return {"id": f"{os.getpid()}-{next(self._ids)}",
                "parent": stack[-1]["id"] if stack else None,
                "name": name, "phase": self.phase, "pid": os.getpid(),
                "start": time.perf_counter(), "end": None,
                "attrs": dict(attrs or {})}

    def generated(self):
        """Trace records every wrapped ``SyntheticTrace`` iterator has
        produced in this process (read from the ``count`` objects)."""
        return sum(int(repr(c)[6:-1]) for c in self._counters)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span around the ``with`` body; yields the span dict."""
        span = self._new(name, attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException:
            span["error"] = True  # its after-hook attributes are missing
            raise
        finally:
            stack.pop()
            span["end"] = time.perf_counter()
            self.spans.append(span)

    def _call(self, name, fn, before=None, after=None):
        """Wrap a plain function: one span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                if before is not None:
                    before(span, args)
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def _gen(self, name, fn, before=None, on_item=None):
        """Wrap a generator function: one span from first resume to end."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._new(name)
            span["active"] = 0.0
            if before is not None:
                before(span, args)

            def run():
                first = True
                try:
                    while True:
                        stack = self._stack()
                        resumed = time.perf_counter()
                        if first:
                            first = False
                            span["start"] = resumed
                            span["parent"] = stack[-1]["id"] if stack \
                                else None
                        stack.append(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                            span["active"] += time.perf_counter() - resumed
                        if on_item is not None:
                            on_item(span, item)
                        yield item
                finally:
                    inner.close()
                    span["end"] = time.perf_counter()
                    self.spans.append(span)
            return run()
        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer boundary the per-layer metrics read."""
        def count_records(trace):
            counter = itertools.count()
            self._counters.append(counter)
            # All C-level iterators: counting adds no Python frame per
            # record.
            return map(operator.itemgetter(0),
                       zip(iter_trace(trace), counter))
        iter_trace = _generator.SyntheticTrace.__iter__
        self._patch(_generator.SyntheticTrace, "__iter__", count_records)

        def gen_before(span, args):
            span["attrs"]["generated0"] = self.generated()

        def gen_after(span, args, records):
            attrs = span["attrs"]
            attrs["generated"] = self.generated() - attrs.pop("generated0")
            attrs["served"] = len(records)
        self._patch(_generator, "materialized_trace", self._call(
            "trace.materialized_trace", _generator.materialized_trace,
            gen_before, gen_after))

        self._patch(_native, "build_library", self._call(
            "native.build_library", _native.build_library))

        def execute_before(span, args):
            span["attrs"]["records"] = len(args[1])
        self._patch(_native, "execute", self._call(
            "native.execute", _native.execute, execute_before))

        def run_before(span, args):
            span["attrs"]["failures0"] = sum(_native.build_failures.values())

        def run_after(span, args, result):
            attrs = span["attrs"]
            attrs["failures"] = (sum(_native.build_failures.values())
                                 - attrs.pop("failures0"))
            attrs["engine_used"] = args[0].engine_used
            attrs["committed"] = result.stats.committed
            attrs["fallbacks"] = result.stats.engine_fallbacks
        self._patch(_processor.Processor, "run", self._call(
            "processor.run", _processor.Processor.run, run_before,
            run_after))

        self._patch(_executors, "execute_spec", self._shipping(
            _executors.execute_spec))

        def pool_before(span, args):
            executor, specs = args[0], args[1]
            span["attrs"].update(jobs=executor.jobs, points=len(specs))

        def adopt(span, item):
            shipped = item[1].__dict__.pop(_SHIPPED, None)
            for child in shipped or ():
                if child["parent"] is None:
                    child["parent"] = span["id"]
                # A persistent worker forked in set-up still says so.
                child["phase"] = span["phase"]
                self.spans.append(child)
        for cls in (_executors.SerialExecutor,
                    _executors.ProcessPoolExecutor,
                    _executors.PersistentPoolExecutor):
            self._patch(cls, "run_iter", self._gen(
                "executors.run_iter", cls.run_iter, pool_before, adopt))
        self._patch(multiprocessing, "Pool", self._call(
            "executors.pool_spawn", multiprocessing.Pool))

        def get_after(span, args, result):
            span["attrs"]["hit"] = result is not None
        self._patch(_store.ResultStore, "get", self._call(
            "store.get", _store.ResultStore.get, after=get_after))
        self._patch(_store.ResultStore, "put", self._call(
            "store.put", _store.ResultStore.put))

        self._patch(_core.BatchEngine, "run_specs_iter", self._gen(
            "core.run_specs_iter", _core.BatchEngine.run_specs_iter))

        self._patch(_client.GatewayClient, "submit", self._call(
            "gateway.submit", _client.GatewayClient.submit))

        def first_result(span, event):
            if "result" in event and "first_result" not in span["attrs"]:
                span["attrs"]["first_result"] = time.perf_counter()
        self._patch(_client.GatewayClient, "stream", self._gen(
            "gateway.stream", _client.GatewayClient.stream,
            on_item=first_result))
        return self

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _shipping(self, execute_spec):
        """``execute_spec`` wrapper that ships worker spans home."""
        traced = self._call("executors.execute_spec", execute_spec)

        @functools.wraps(execute_spec)
        def wrapper(spec):
            mark = len(self.spans)
            result = traced(spec)
            if os.getpid() != self._root_pid:
                setattr(result, _SHIPPED, self.spans[mark:])
                del self.spans[mark:]
            return result
        return wrapper

    def in_child(self, fn, *args):
        """Run ``fn`` in a pool worker and return ``(result, spans)``."""
        mark = len(self.spans)
        result = fn(*args)
        shipped = self.spans[mark:]
        del self.spans[mark:]
        return result, shipped


# -- per-layer metrics ---------------------------------------------------

#: Every per-layer metric: (name, unit, better, end-to-end metric and
#: workload it should move).
LAYER_METRICS = (
    ("trace.gen_s", "s", "lower", "sim_kips on sweep"),
    ("trace.records_generated", "count", "lower", "sim_kips on sweep"),
    ("trace.reuse_ratio", "ratio", "higher", "sim_kips on sweep"),
    ("native.builds", "count", "lower", "setup_s on deep"),
    ("native.build_s", "s", "lower", "setup_s on deep"),
    ("native.execute_s", "s", "lower", "sim_kips on deep"),
    ("native.ns_per_instr", "ns", "lower", "sim_kips on deep"),
    ("native.fallbacks", "count", "lower",
     "must be 0 on sweep, deep and serve"),
    ("processor.run_self_s", "s", "lower", "sim_kips on paper"),
    ("processor.interp_kips", "KIPS", "higher", "sim_kips on paper"),
    ("executors.busy_ratio", "ratio", "higher",
     "jobs_per_s and job_p95_s on serve"),
    ("executors.pool_spawns", "count", "lower",
     "sim_kips on sweep; setup_s on serve, whose pool forks in set-up"),
    ("executors.spawn_s", "s", "lower",
     "sim_kips on sweep; setup_s on serve, whose pool forks in set-up"),
    ("store.gets", "count", "lower", "job_p50_s on serve"),
    ("store.get_s", "s", "lower", "job_p50_s on serve"),
    ("store.hit_ratio", "ratio", "higher", "job_p50_s on serve"),
    ("store.puts", "count", "lower", "sim_kips on sweep"),
    ("store.put_s", "s", "lower", "sim_kips on sweep"),
    ("core.self_s", "s", "lower", "job_p50_s on serve"),
    ("gateway.submit_s", "s", "lower", "job_p95_s on serve"),
    ("gateway.first_result_s", "s", "lower", "job_p95_s on serve"),
    ("gateway.rounds", "count", "lower", "job_p95_s on serve"),
    ("gateway.points_per_round", "count", "higher", "job_p95_s on serve"),
    ("harness.trace_overhead", "ratio", "lower",
     "none: traced over untraced timed wall time, minus 1"),
)


def _duration(span):
    return span.get("active", span["end"] - span["start"])


def _covered(span, children):
    """Seconds of ``span``'s interval its children's intervals cover."""
    intervals = sorted((max(c["start"], span["start"]),
                        min(c["end"], span["end"])) for c in children)
    total, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, builds, gateway_delta=None):
    """The per-layer metrics of one traced run (all but the overhead).

    ``builds`` is the number of native artifacts the run compiled;
    ``gateway_delta`` the ``/v1/metrics.json`` counter deltas over the
    timed phase (``None`` when no gateway ran).
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def kids(span, *names):
        return [c for c in children.get(span["id"], ())
                if c["pid"] == span["pid"] and (not names
                                                or c["name"] in names)]

    def self_time(span, *names):
        return _duration(span) - _covered(span, kids(span, *names))

    timed = {}
    for span in spans:
        if span["phase"] == "timed" and not span.get("error"):
            timed.setdefault(span["name"], []).append(span)

    def named(name):
        return timed.get(name, [])

    out = {}
    traces = named("trace.materialized_trace")
    generated = sum(s["attrs"]["generated"] for s in traces)
    served = sum(s["attrs"]["served"] for s in traces)
    out["trace.gen_s"] = sum(_duration(s) for s in traces)
    out["trace.records_generated"] = generated
    out["trace.reuse_ratio"] = served / generated if generated else 0.0

    out["native.builds"] = builds
    out["native.build_s"] = sum(_duration(s) for s in spans
                                if s["name"] == "native.build_library")
    executes = named("native.execute")
    execute_s = sum(self_time(s, "native.build_library") for s in executes)
    records = sum(s["attrs"]["records"] for s in executes)
    out["native.execute_s"] = execute_s
    out["native.ns_per_instr"] = execute_s * 1e9 / records if records \
        else 0.0
    runs = named("processor.run")
    out["native.fallbacks"] = sum(s["attrs"]["fallbacks"]
                                  + s["attrs"]["failures"] for s in runs)

    out["processor.run_self_s"] = sum(self_time(s, "native.execute")
                                      for s in runs)
    interp = [s for s in runs if s["attrs"]["engine_used"] == "interp"]
    interp_s = sum(_duration(s) for s in interp)
    out["processor.interp_kips"] = (
        sum(s["attrs"]["committed"] for s in interp) / interp_s / 1e3
        if interp_s else 0.0)

    by_id = {s["id"]: s for s in spans}
    windows = [s for s in named("executors.run_iter")
               if by_id.get(s["parent"], {}).get("name")
               != "executors.run_iter"]
    capacity = 0.0
    for window in windows:
        jobs, points = window["attrs"]["jobs"], window["attrs"]["points"]
        width = 1 if jobs <= 1 or points <= 1 else min(jobs, points)
        capacity += width * (window["end"] - window["start"])
    busy = sum(_duration(s) for s in named("executors.execute_spec"))
    out["executors.busy_ratio"] = busy / capacity if capacity else 0.0
    pools = named("executors.pool_spawn")
    out["executors.pool_spawns"] = len(pools)
    out["executors.spawn_s"] = sum(_duration(s) for s in pools)

    gets, puts = named("store.get"), named("store.put")
    out["store.gets"] = len(gets)
    out["store.get_s"] = sum(_duration(s) for s in gets)
    out["store.hit_ratio"] = (sum(s["attrs"]["hit"] for s in gets)
                              / len(gets) if gets else 0.0)
    out["store.puts"] = len(puts)
    out["store.put_s"] = sum(_duration(s) for s in puts)

    out["core.self_s"] = sum(
        self_time(s, "executors.run_iter", "store.get", "store.put")
        for s in named("core.run_specs_iter"))

    submits, firsts = [], []
    for job in named("bench.job"):
        for child in kids(job):
            if child["name"] == "gateway.submit":
                submits.append(_duration(child))
            elif "first_result" in child["attrs"]:
                firsts.append(child["attrs"]["first_result"] - job["start"])
    out["gateway.submit_s"] = _median(submits)
    out["gateway.first_result_s"] = _median(firsts)
    delta = gateway_delta or {}
    rounds = delta.get("rounds", 0)
    out["gateway.rounds"] = rounds
    out["gateway.points_per_round"] = (delta.get("points", 0) / rounds
                                       if rounds else 0.0)
    return out


def tier_counts(spans):
    """Executed points per tier actually used in the timed phase."""
    counts = {}
    for span in spans:
        if (span["phase"] == "timed" and span["name"] == "processor.run"
                and not span.get("error")):
            tier = span["attrs"]["engine_used"]
            if span["attrs"]["fallbacks"]:
                tier = "fallback"
            counts[tier] = counts.get(tier, 0) + 1
    return counts
