"""Result-store compaction: segments and superseded records fold away."""

import json
import os
import threading

from repro.engine import ResultStore, RunSpec, execute_spec
from repro.uarch.config import conventional_config


def small_spec(workload="go"):
    return RunSpec(workload, conventional_config()).resolved(400, 100, 1)


def line_count(store):
    """Total records across the base file and every segment."""
    total = 0
    for path in [store.path, *store.segment_paths()]:
        if not path.exists():
            continue
        with open(path, "r", encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def test_superseded_records_are_dropped(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    store = ResultStore(tmp_path)
    for _ in range(5):
        store.put(spec.key(), result)
    assert line_count(store) == 5

    kept, dropped = store.compact()
    assert (kept, dropped) == (1, 4)
    assert line_count(store) == 1
    # The surviving record still round-trips.
    assert ResultStore(tmp_path).get(spec.key()).to_dict() == result.to_dict()


def test_corrupt_lines_count_as_dropped(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    store.put(spec.key(), execute_spec(spec))
    (segment,) = store.segment_paths()
    with open(segment, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    kept, dropped = store.compact()
    assert kept == 1
    assert dropped == 1


def test_prune_stale_drops_old_versions(tmp_path):
    spec = small_spec()
    result = execute_spec(spec)
    ResultStore(tmp_path, version="v1").put(spec.key(), result)
    store_v2 = ResultStore(tmp_path, version="v2")
    store_v2.put(spec.key(), result)

    # Without pruning, both versions survive.
    kept, dropped = store_v2.compact()
    assert (kept, dropped) == (2, 0)

    kept, dropped = store_v2.compact(prune_stale=True)
    assert (kept, dropped) == (1, 1)
    assert ResultStore(tmp_path, version="v2").get(spec.key()) is not None
    assert ResultStore(tmp_path, version="v1").get(spec.key()) is None


def test_compact_missing_file_is_noop(tmp_path):
    assert ResultStore(tmp_path).compact() == (0, 0)


def test_last_record_wins_after_compaction(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    result = execute_spec(spec)
    store.put(spec.key(), result)
    # Hand-append a doctored newer record for the same key to the same
    # segment: compaction must keep the *newest*, not the first.
    (segment,) = store.segment_paths()
    doctored = result.to_dict()
    doctored["extra"] = {"marker": "newest"}
    with open(segment, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": spec.key(), "version": store.version,
                             "result": doctored}) + "\n")
    kept, _ = store.compact()
    assert kept == 1
    assert ResultStore(tmp_path).get(spec.key()).extra == {"marker": "newest"}


def test_compaction_never_loses_a_racing_append(tmp_path):
    """Satellite acceptance: a record appended concurrently with
    ``compact()`` must survive — either rescued into the base or left
    in a fresh segment for the next compaction — never silently lost.
    """
    result = execute_spec(small_spec())
    writer = ResultStore(tmp_path)
    total = 400
    written = []
    stop = threading.Event()

    def write_loop():
        for n in range(total):
            key = f"go:racer{n}:400:100:1"
            writer.put(key, result)
            written.append(key)
            if stop.is_set() and n >= 50:
                return

    thread = threading.Thread(target=write_loop)
    thread.start()
    try:
        compactor = ResultStore(tmp_path)
        # Hammer compaction while the writer streams appends, so some
        # compactions overlap segment writes mid-flight.
        for _ in range(25):
            compactor.compact()
            if not thread.is_alive():
                break
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    ResultStore(tmp_path).compact()  # quiescent: folds any leftovers
    reader = ResultStore(tmp_path)
    missing = [key for key in written if key not in reader]
    assert not missing, (f"compaction lost {len(missing)}/{len(written)} "
                         f"racing appends, e.g. {missing[:3]}")
    assert len(reader.segment_paths()) == 0
    assert not list(tmp_path.glob("*.compacting"))


def _interleave(monkeypatch, trigger, action):
    """Run ``action()`` once, inside the first call of ``os.<trigger>``
    made by the store module, before that call proceeds."""
    from repro.engine import store as store_module

    real = getattr(os, trigger)
    fired = []

    def patched(*args, **kwargs):
        if not fired:
            fired.append(True)
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(store_module.os, trigger, patched)


def test_append_after_the_final_drain_is_written_again(tmp_path,
                                                        monkeypatch):
    """A put that opened its segment before compaction renamed it, and
    writes only after the post-unlink drain, lands in an unlinked
    inode: it must notice and append the record again."""
    spec = small_spec()
    result = execute_spec(spec)
    writer = ResultStore(tmp_path)
    writer.put("go:early:400:100:1", result)  # the segment exists
    _interleave(monkeypatch, "write",
                lambda: ResultStore(tmp_path).compact())
    writer.put(spec.key(), result)
    monkeypatch.undo()
    assert ResultStore(tmp_path).get(spec.key()) is not None
    assert ResultStore(tmp_path).get("go:early:400:100:1") is not None


def test_scan_leaves_a_line_being_written_for_the_drain(tmp_path,
                                                        monkeypatch):
    """A compaction scan that reads part of a line still being written
    must not consume it: the rest arrives before the segment is
    retired, and the drain then rescues the whole record."""
    spec = small_spec()
    result = execute_spec(spec)
    writer = ResultStore(tmp_path)
    writer.put("go:early:400:100:1", result)
    writer.put(spec.key(), result)
    segment = writer.segment_paths()[0]
    data = segment.read_bytes()
    first = data.index(b"\n") + 1
    half = first + (len(data) - first) // 2
    segment.write_bytes(data[:half])  # the second record, half written

    def finish_write():  # before the scan's results reach the base
        with open(segment, "ab") as fh:
            fh.write(data[half:])
    _interleave(monkeypatch, "replace", finish_write)
    kept, dropped = ResultStore(tmp_path).compact()
    monkeypatch.undo()
    assert (kept, dropped) == (2, 0)
    assert ResultStore(tmp_path).get(spec.key()) is not None


def test_segment_created_after_compaction_scan_survives(tmp_path):
    """A writer whose segment appears mid-compaction keeps it: only
    segments seen by the scan are retired."""
    spec = small_spec()
    result = execute_spec(spec)
    early = ResultStore(tmp_path)
    early.put(spec.key(), result)
    late = ResultStore(tmp_path)
    late.put("go:late:400:100:1", result)  # second segment, same dir
    kept, _ = ResultStore(tmp_path).compact()
    assert kept == 2
    assert ResultStore(tmp_path).get("go:late:400:100:1") is not None


def test_result_cache_compact_passthrough(tmp_path, monkeypatch):
    from repro.experiments.runner import ResultCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(jobs=1)
    spec = small_spec()
    cache.engine.store.put(spec.key(), execute_spec(spec))
    cache.engine.store.put(spec.key(), execute_spec(spec))
    kept, dropped = cache.compact()
    assert kept == 1 and dropped == 1
    assert ResultCache(jobs=1, persistent=False).compact() == (0, 0)
