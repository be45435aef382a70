"""The native engine tier: C codegen + an on-disk artifact cache.

The compiled tier (``repro.uarch.compiled``) removed the per-cycle
Python overhead it could — re-hoisted state, configuration-dead
branches — but the residual cost is CPython bytecode dispatch itself.
This package lowers the same per-``ProcessorConfig`` specialization to
C99: a ``#define`` header rendered per feature vector is prepended to
``engine_template.c`` (one translation unit), compiled once with the
system toolchain (``cc -O2 -shared -fPIC``; ``REPRO_CC`` overrides the
probe order), and loaded through :mod:`ctypes`.  The trace arrives
slot-coded (:class:`~repro.trace.columns.TraceColumns`): a slot id and
an address per record plus the per-workload slot table, which the C
loop reads in place as ``table[slot[i]]`` — the materialized-trace
cache keeps the columns per ``(workload, seed)``, any other record
iterable is encoded once — and the functional warm-up over the skipped
prefix runs in C too, so a run does no per-record Python work.  A flat
counter block is mapped back onto ``SimStats`` — the contract is
**bit-identical** statistics with the interpreter, enforced by the same
differential stack as the compiled tier (``tools/engine_diff.py``,
golden replays, the chaos differential).

Shared objects are cached under ``REPRO_CACHE_DIR/native/`` keyed by
``sha256(header + template)`` so sweeps and pool workers compile each
specialization at most once per machine; the file name also embeds a
template fingerprint so stale artifacts from an older code version are
recognizable (``repro cache stats`` flags them, ``repro cache compact``
prunes them).  A cross-process ``flock`` serializes concurrent builds
of the same artifact.

Everything degrades loudly but gracefully: no toolchain, a failed
compile, an unspecializable processor, or a trace shape the C loop does
not model falls back to the compiled tier (then the interpreter), with
the reason recorded in :data:`build_failures` and the fallback counted
in ``SimStats.engine_fallbacks``.

Known limitation: after a native run the renamer's *map-table and
free-list contents* are not synced back (only their statistics
counters are) — post-run code that inspects rename state should use
the interpreted or compiled tiers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from array import array
from contextlib import contextmanager
from pathlib import Path

from repro.isa.opcodes import FUKind, OP_DECODE
from repro.isa.registers import RegClass
from repro.uarch import compiled as _compiled

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None

#: build and trace refusals by reason (diagnostics; reset per process).
build_failures: dict[str, int] = {}

#: in-process cache of loaded shared objects, keyed by artifact name.
_LIB_CACHE: dict[str, object] = {}

_TOOLCHAIN_UNSET = object()
_toolchain = _TOOLCHAIN_UNSET

_TEMPLATE_PATH = Path(__file__).with_name("engine_template.c")
_template_cache = None

#: The flat counter block the C loop fills, in slot order.  This tuple
#: is the single source of truth: it generates the ``K_*`` defines in
#: the rendered header, and the sync-back indexes counters by it.
_COUNTER_NAMES = (
    "now", "exhausted", "committed", "fetched", "executions", "squashes",
    "issue_alloc_blocks", "branches", "mispredicts", "stall_rob_full",
    "stall_iq_full", "stall_no_reg", "stall_sq_full", "fetch_stall_cycles",
    "wb_port_defers", "int_reg_occupancy_sum", "fp_reg_occupancy_sum",
    "peak_rob", "iq_count", "fetch_resume_at", "next_seq", "last_commit",
    "idle_skips", "idle_cycles_skipped", "cache_loads", "cache_load_misses",
    "cache_stores", "cache_store_misses", "cache_mshr_stalls",
    "sq_forwards", "sq_waits", "port_conflicts", "mshr_allocations",
    "mshr_merges", "mshr_rejections", "bus_transfers", "bus_busy_cycles",
    "bus_free_at", "rf_read_stalls", "rf_bank_conflicts",
    "ren_decode_stalls", "ren_vp_stalls", "ren_squashes",
    "ren_issue_blocks", "fl_int_allocs", "fl_int_min_free", "fl_fp_allocs",
    "fl_fp_min_free", "vp_int_allocs", "vp_int_min_free", "vp_fp_allocs",
    "vp_fp_min_free",
    "fu_issues_0", "fu_issues_1", "fu_issues_2", "fu_issues_3",
    "fu_issues_4", "fu_issues_5",
    "fu_stalls_0", "fu_stalls_1", "fu_stalls_2", "fu_stalls_3",
    "fu_stalls_4", "fu_stalls_5",
    "deadlock_head",
)
_K = {name: i for i, name in enumerate(_COUNTER_NAMES)}
N_COUNTERS = len(_COUNTER_NAMES)

_PROBE_SOURCE = "int repro_probe(void) { return 42; }\n"


def _note_failure(reason):
    build_failures[reason] = build_failures.get(reason, 0) + 1


def _template_text():
    global _template_cache
    if _template_cache is None:
        _template_cache = _TEMPLATE_PATH.read_text(encoding="utf-8")
    return _template_cache


def template_fingerprint():
    """Short hash of the C template; embedded in artifact file names so
    artifacts from an older template are recognizable as stale."""
    text = _template_text().encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:8]


def _try_compiler(cc):
    """Probe-compile a trivial shared object with ``cc``."""
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        src = os.path.join(tmp, "probe.c")
        out = os.path.join(tmp, "probe.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_PROBE_SOURCE)
        try:
            result = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", out, src],
                capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            return False
        return result.returncode == 0 and os.path.exists(out)


def toolchain():
    """The working C compiler for this host, or ``None``.

    Probed once per process: ``$REPRO_CC`` first (if set, *only* it —
    an explicit override should fail loudly, not silently fall back to
    another compiler), then ``cc``, ``gcc``, ``clang``.
    """
    global _toolchain
    if _toolchain is _TOOLCHAIN_UNSET:
        override = os.environ.get("REPRO_CC", "").strip()
        candidates = [override] if override else ["cc", "gcc", "clang"]
        _toolchain = next((cc for cc in candidates if _try_compiler(cc)),
                          None)
    return _toolchain


def clear_cache():
    """Drop the in-process library cache and failure counters (tests).

    The on-disk artifacts and the toolchain probe are *not* reset —
    they are host properties, not run state.
    """
    _LIB_CACHE.clear()
    build_failures.clear()


def cache_info():
    """Diagnostics mirroring :func:`repro.uarch.compiled.cache_info`."""
    return {
        "loaded_libraries": len(_LIB_CACHE),
        "build_failures": dict(build_failures),
    }


def artifact_dir():
    """Where compiled shared objects live: ``REPRO_CACHE_DIR/native``."""
    from repro.engine.store import default_cache_dir

    return Path(default_cache_dir()) / "native"


# -- feature gating ----------------------------------------------------------


def native_features(processor):
    """``((flags, consts), None)`` or ``(None, reason)``.

    The native tier supports exactly the fully-inlined specializations:
    the compiled tier must be able to specialize the processor *and*
    every subsystem hook must be inlinable (no instance-level
    monkeypatching anywhere the C loop bypasses).
    """
    features = _compiled.engine_features(processor)
    if features is None:
        return None, "unsupported-policy"
    flags, _ = features
    if not (flags["INLINE_RENAME"] and flags["FU_INLINE"]
            and flags["BHT_INLINE"] and flags["POOLS"] and flags["GATE"]):
        return None, "unsupported-policy"
    if flags["VP_INLINE"]:
        if not flags["DISPATCH_HOOK"]:
            return None, "unsupported-policy"
        if flags["VP_WB"] != flags["COMPLETE_HOOK"]:
            return None, "unsupported-policy"
    elif (flags["COMPLETE_HOOK"] or flags["ISSUE_HOOK"]
            or flags["DISPATCH_HOOK"] or flags["VP_WB"] or flags["RETRY"]):
        return None, "unsupported-policy"
    return features, None


def _pristine(processor):
    """The C loop assumes reset machine state (identity rename maps,
    full free pools, cycle zero); refuse anything pre-mutated."""
    p = processor
    if (p.now != 0 or p._next_seq != 0 or p.rob or p.fetch_buffer
            or p.pending_mem or p._replay or p.stats.committed
            or p.stats.cycles):
        return False
    pools = [p.renamer.phys_pools()[cls] for cls in (RegClass.INT,
                                                     RegClass.FP)]
    gate = p.renamer.rename_gate_pools()
    if gate is not None:
        pools.extend(gate[cls] for cls in (RegClass.INT, RegClass.FP))
    return all(fl.allocations == 0 and fl.free_count == fl.capacity
               for fl in pools)


# -- header rendering --------------------------------------------------------


def _c_int(value):
    value = int(value)
    if -(2 ** 31) < value < 2 ** 31:
        return str(value)
    return f"INT64_C({value})"


def render_header(processor, flags, consts):
    """The ``#define`` header completing ``engine_template.c`` into one
    self-contained translation unit for this processor's feature
    vector."""
    cfg = processor.config
    ren = processor.renamer
    INT, FP = RegClass.INT, RegClass.FP
    vp = flags["VP_INLINE"]

    lines = ["/* generated by repro.uarch.native - do not edit */"]
    define = lambda name, value: lines.append(f"#define {name} {value}")

    define("F_RF", int(flags["RF"]))
    define("F_COMPLETE", int(flags["COMPLETE_HOOK"]))
    define("F_ISSUE", int(flags["ISSUE_HOOK"]))
    define("F_VP_WB", int(flags["VP_WB"]))
    define("F_RETRY", int(flags["RETRY"]))
    define("F_IDLE", int(flags["IDLE"]))
    define("F_PERFECT", int(flags["PERFECT"]))
    define("F_VP", int(vp))
    define("F_CONV", int(flags["CONV"]))

    for name in ("FETCH_W", "RENAME_W", "ISSUE_W", "COMMIT_W", "ROB_SIZE",
                 "IQ_SIZE", "FB_SIZE", "READ_PORTS", "WRITE_PORTS",
                 "COMMIT_DELAY", "HORIZON", "CLASS_SHIFT", "INDEX_MASK"):
        define(name, _c_int(consts[name]))
    define("FAR_FUTURE", _c_int(consts["FAR_FUTURE"]))

    nlr = {c: ren.nlr[c] for c in (INT, FP)}
    npr = {c: ren.npr[c] for c in (INT, FP)}
    nvr = {c: ren.nvr[c] for c in (INT, FP)} if vp else dict(npr)
    if vp:
        nrr = {c: ren._reserve_by_cls[c].nrr for c in (INT, FP)}
    else:
        nrr = {INT: 0, FP: 0}
    define("NLR_INT", nlr[INT])
    define("NLR_FP", nlr[FP])
    define("NPR_INT", npr[INT])
    define("NPR_FP", npr[FP])
    define("NVR_INT", nvr[INT])
    define("NVR_FP", nvr[FP])
    define("NRR_INT", nrr[INT])
    define("NRR_FP", nrr[FP])
    define("MAX_IDENT", max(npr[INT], npr[FP], nvr[INT], nvr[FP]))
    define("SQ_CAP", cfg.store_queue_size or 0)

    ccfg = processor.mem.cache.config
    define("NUM_LINES", ccfg.num_lines)
    define("LINE_BYTES", ccfg.line_bytes)
    define("HIT_LAT", ccfg.hit_latency)
    define("MISS_PEN", ccfg.miss_penalty)
    define("MSHR_N", ccfg.mshr_entries)
    define("BUS_CPL", ccfg.bus_cycles_per_line)
    define("CACHE_PORTS", cfg.cache_ports)
    define("BHT_MASK", processor.bht._mask)

    if flags["RF"]:
        rf = processor.regfile
        define("RF_RP", rf.read_ports)
        define("RF_WP", rf.write_ports)
        define("RF_BANKS", rf.banks)
        define("RF_BANK_RP", rf.bank_read_ports)
        define("RF_BANK_WP", rf.bank_write_ports)
    else:
        define("RF_BANKS", 1)

    fu_n = [len(processor.fus._busy_until[kind]) for kind in FUKind]
    define("FU_MAX", max(fu_n))
    define("FU_N_INIT", "{" + ", ".join(map(str, fu_n)) + "}")

    define("N_OPS", len(OP_DECODE))
    cols = {"OP_DEST_INIT": [], "OP_LOAD_INIT": [], "OP_STORE_INIT": [],
            "OP_BR_INIT": [], "OP_FU_INIT": [], "OP_LAT_INIT": [],
            "OP_PIPE_INIT": []}
    for dcls, is_load, is_store, is_br, fu_kind, latency, pipelined \
            in OP_DECODE:
        cols["OP_DEST_INIT"].append(-1 if dcls is None else int(dcls))
        cols["OP_LOAD_INIT"].append(int(is_load))
        cols["OP_STORE_INIT"].append(int(is_store))
        cols["OP_BR_INIT"].append(int(is_br))
        cols["OP_FU_INIT"].append(int(fu_kind))
        cols["OP_LAT_INIT"].append(int(latency))
        cols["OP_PIPE_INIT"].append(int(pipelined))
    for name, values in cols.items():
        define(name, "{" + ", ".join(map(str, values)) + "}")

    for i, name in enumerate(_COUNTER_NAMES):
        define(f"K_{name.upper()}", i)
    define("N_COUNTERS", N_COUNTERS)
    return "\n".join(lines) + "\n"


def native_key(processor):
    """Stable identity of the artifact a processor would compile, or
    ``None`` when it cannot run natively.  Hashes the *rendered* header
    plus the template text, so any semantic change to either produces a
    new artifact."""
    features, _ = native_features(processor)
    if features is None:
        return None
    header = render_header(processor, *features)
    blob = (header + _template_text()).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# -- artifact build + load ---------------------------------------------------


@contextmanager
def _build_lock(directory):
    """Cross-process exclusive lock serializing artifact builds."""
    if fcntl is None:  # pragma: no cover - non-POSIX host
        yield
        return
    with open(directory / ".lock", "w") as lockf:
        fcntl.flock(lockf, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lockf, fcntl.LOCK_UN)


def _declare(lib):
    lib.repro_run.restype = ctypes.c_int64
    lib.repro_run.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 11
    return lib


def build_library(processor):
    """``(loaded library, None)`` or ``(None, failure reason)``.

    Cache ladder: in-process loaded library -> on-disk shared object ->
    compile (under the cross-process build lock, with an atomic rename
    so readers never see a partial artifact).
    """
    features, reason = native_features(processor)
    if features is None:
        _note_failure(reason)
        return None, reason
    cc = toolchain()
    if cc is None:
        _note_failure("no-toolchain")
        return None, "no-toolchain"
    header = render_header(processor, *features)
    template = _template_text()
    key = hashlib.sha256((header + template).encode("utf-8")) \
        .hexdigest()[:16]
    name = f"engine-{template_fingerprint()}-{key}.so"
    lib = _LIB_CACHE.get(name)
    if lib is not None:
        return lib, None
    directory = artifact_dir()
    so_path = directory / name
    if not so_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            _note_failure("cache-dir-unwritable")
            return None, "cache-dir-unwritable"
        with _build_lock(directory):
            if not so_path.exists():  # a peer may have built it meanwhile
                src_path = directory / f"{name[:-3]}.c"
                tmp_path = directory / f".{name}.tmp-{os.getpid()}"
                try:
                    src_path.write_text(header + template,
                                        encoding="utf-8")
                    result = subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC",
                         "-o", str(tmp_path), str(src_path)],
                        capture_output=True, timeout=300)
                    if result.returncode != 0:
                        _note_failure("compile-error")
                        return None, "compile-error"
                    os.replace(tmp_path, so_path)
                except (OSError, subprocess.TimeoutExpired):
                    _note_failure("compile-error")
                    return None, "compile-error"
                finally:
                    for leftover in (tmp_path, src_path):
                        try:
                            leftover.unlink()
                        except OSError:
                            pass
    try:
        # PyDLL, not CDLL: the GIL stays held during the call, so the
        # file-scope statics in the C loop need no further locking.
        lib = _declare(ctypes.PyDLL(str(so_path)))
    except OSError:
        _note_failure("load-error")
        return None, "load-error"
    _LIB_CACHE[name] = lib
    return lib, None


# -- execution ---------------------------------------------------------------


def _ptr(arr):
    return ctypes.c_void_p(arr.buffer_info()[0])


def _sync(processor, c, tags_arr, bht_arr):
    """Map the flat counter block back onto the live Python objects.

    Mirrors the ``finally`` sync of the compiled tier plus the
    subsystem counters ``_harvest_stats`` reads afterwards.
    """
    p = processor
    K = _K
    st = p.stats
    p.now = c[K["now"]]
    p._exhausted = bool(c[K["exhausted"]])
    p.iq_count = c[K["iq_count"]]
    p.fetch_resume_at = c[K["fetch_resume_at"]]
    p._next_seq = c[K["next_seq"]]
    p._last_commit_cycle = c[K["last_commit"]]
    p.idle_skips = c[K["idle_skips"]]
    p.idle_cycles_skipped = c[K["idle_cycles_skipped"]]
    st.committed = c[K["committed"]]
    st.fetched = c[K["fetched"]]
    st.executions = c[K["executions"]]
    st.squashes = c[K["squashes"]]
    st.issue_alloc_blocks = c[K["issue_alloc_blocks"]]
    st.branches = c[K["branches"]]
    st.mispredicts = c[K["mispredicts"]]
    st.stall_rob_full = c[K["stall_rob_full"]]
    st.stall_iq_full = c[K["stall_iq_full"]]
    st.stall_no_reg = c[K["stall_no_reg"]]
    st.stall_sq_full = c[K["stall_sq_full"]]
    st.fetch_stall_cycles = c[K["fetch_stall_cycles"]]
    st.wb_port_defers = c[K["wb_port_defers"]]
    st.int_reg_occupancy_sum = c[K["int_reg_occupancy_sum"]]
    st.fp_reg_occupancy_sum = c[K["fp_reg_occupancy_sum"]]
    st.peak_rob = c[K["peak_rob"]]

    cache = p.mem.cache
    cache.loads = c[K["cache_loads"]]
    cache.load_misses = c[K["cache_load_misses"]]
    cache.stores = c[K["cache_stores"]]
    cache.store_misses = c[K["cache_store_misses"]]
    cache.mshr_stalls = c[K["cache_mshr_stalls"]]
    cache._tags[:] = tags_arr.tolist()
    cache.mshrs.allocations = c[K["mshr_allocations"]]
    cache.mshrs.merges = c[K["mshr_merges"]]
    cache.mshrs.rejections = c[K["mshr_rejections"]]
    cache.bus.transfers = c[K["bus_transfers"]]
    cache.bus.busy_cycles = c[K["bus_busy_cycles"]]
    cache.bus._free_at = c[K["bus_free_at"]]
    p.mem.port_conflicts = c[K["port_conflicts"]]
    sq = p.mem.store_queue
    sq.forwards = c[K["sq_forwards"]]
    sq.waits = c[K["sq_waits"]]
    p.bht._counters[:] = bht_arr.tolist()

    ren = p.renamer
    if hasattr(ren, "vp_stalls"):
        ren.vp_stalls = c[K["ren_vp_stalls"]]
        ren.squashes = c[K["ren_squashes"]]
        ren.issue_blocks = c[K["ren_issue_blocks"]]
    elif hasattr(ren, "decode_stalls"):
        ren.decode_stalls = c[K["ren_decode_stalls"]]
    pools = ren.phys_pools()
    for cls, prefix in ((RegClass.INT, "fl_int"), (RegClass.FP, "fl_fp")):
        pools[cls].allocations = c[K[f"{prefix}_allocs"]]
        pools[cls].min_free = c[K[f"{prefix}_min_free"]]
    if hasattr(ren, "free_vp"):
        for cls, prefix in ((RegClass.INT, "vp_int"),
                            (RegClass.FP, "vp_fp")):
            ren.free_vp[cls].allocations = c[K[f"{prefix}_allocs"]]
            ren.free_vp[cls].min_free = c[K[f"{prefix}_min_free"]]

    for kind in FUKind:
        p.fus.issues[kind] = c[K[f"fu_issues_{int(kind)}"]]
        p.fus.structural_stalls[kind] = c[K[f"fu_stalls_{int(kind)}"]]
    if p.regfile is not None:
        p.regfile.read_stalls = c[K["rf_read_stalls"]]
        p.regfile.bank_conflicts = c[K["rf_bank_conflicts"]]


def execute(processor, trace):
    """Run a :class:`~repro.trace.columns.TraceColumns` trace through
    the native loop on ``processor``.

    The C loop reads the slot and address columns and the slot table in
    place (no per-run decode): it first warms the cache and
    the branch predictor over the ``trace.skip`` prefix (exactly
    ``Processor._warm_up``), then simulates the ``len(trace)`` records
    after it.  Returns ``True`` when the native tier ran and the
    processor's state was synced (the caller finishes with
    ``_harvest_stats`` exactly as for the compiled tier), ``False`` on
    any fallback (reason recorded in :data:`build_failures`, Python
    state untouched), and raises ``SimulationDeadlock`` — with the
    interpreter's message prefix — when the simulation deadlocks.
    """
    n = len(trace)
    if n == 0:
        _note_failure("empty-trace")
        return False
    if n >= 2 ** 31:
        _note_failure("trace-too-long")
        return False
    if processor._fault_at_commits:
        _note_failure("fault-injection")
        return False
    if not _pristine(processor):
        _note_failure("non-pristine-state")
        return False
    if trace.store_missing_src():
        _note_failure("store-missing-src")
        return False
    lib, reason = build_library(processor)
    if lib is None:
        return False
    tags_arr = array("q", processor.mem.cache._tags)
    bht_arr = array("b", processor.bht._counters)
    counters = array("q", bytes(8 * N_COUNTERS))
    rc = lib.repro_run(n, trace.skip, _ptr(trace.slots), _ptr(trace.addrs),
                       *map(_ptr, trace.table.columns),
                       _ptr(tags_arr), _ptr(bht_arr), _ptr(counters))
    if rc in (0, 1):
        _sync(processor, counters, tags_arr, bht_arr)
        if rc == 1:
            from repro.uarch.processor import SimulationDeadlock

            head = counters[_K["deadlock_head"]]
            horizon = processor.config.deadlock_horizon
            raise SimulationDeadlock(
                f"no commit for {horizon} cycles at cycle "
                f"{processor.now}; ROB head: "
                f"{'native seq %d' % head if head >= 0 else None}")
        return True
    # rc 2: a C-side invariant check fired *before* any corrupting
    # write; nothing was synced, so the Python state is still clean and
    # the compiled tier will reproduce the same crash the interpreter
    # would raise.  rc 3: allocation failure, nothing ran.
    _note_failure("native-alloc" if rc == 3 else "native-invariant")
    return False


# -- artifact-cache maintenance ----------------------------------------------


def artifact_stats():
    """Accounting for ``repro cache stats``: artifact count and bytes,
    with artifacts from an older template flagged stale."""
    directory = artifact_dir()
    current = f"engine-{template_fingerprint()}-"
    count = stale = total = stale_bytes = 0
    if directory.is_dir():
        for path in directory.glob("engine-*.so"):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            count += 1
            total += size
            if not path.name.startswith(current):
                stale += 1
                stale_bytes += size
    return {
        "dir": str(directory),
        "artifacts": count,
        "bytes": total,
        "stale_artifacts": stale,
        "stale_bytes": stale_bytes,
    }


def _dir_writable(directory):
    """Can this process create and write files under ``directory``?"""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / f".writable-{os.getpid()}"
        probe.write_bytes(b"ok")
        probe.unlink()
        return True
    except OSError:
        return False


def probe():
    """Host-readiness report for the native tier (``repro engines`` and
    ``tools/native_probe.py``).

    Every check that the tier needs at run time, checked up front:
    a working C compiler (probe-compiled, not just found on PATH) and a
    writable artifact cache directory.  ``available`` is the
    conjunction — when it is ``False``, ``engine=native`` falls back
    to the compiled tier on every run (loudly, via
    ``SimStats.engine_fallbacks``).
    """
    cc = toolchain()
    directory = artifact_dir()
    writable = _dir_writable(directory)
    return {
        "toolchain": cc,
        "cache_dir": str(directory),
        "cache_dir_writable": writable,
        "template_fingerprint": template_fingerprint(),
        "available": cc is not None and writable,
    }


def prune_stale():
    """Remove artifacts whose template fingerprint is not current (for
    ``repro cache compact``).  Returns ``(removed count, freed bytes)``."""
    directory = artifact_dir()
    current = f"engine-{template_fingerprint()}-"
    removed = freed = 0
    if directory.is_dir():
        for path in directory.glob("engine-*.so"):
            if path.name.startswith(current):
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
    return removed, freed
