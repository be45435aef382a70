"""Persistent on-disk result store (sharded JSON-lines segments).

Results live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) as
one *base* file plus any number of per-writer *segment* files::

    results.jsonl                    # the merged base (compact target)
    results-<host>-<pid>-<tok>.jsonl # one segment per concurrent writer

Every file holds self-contained records, one per line::

    {"crc": 123..., "key": "<spec key>", "version": "<code hash>",
     "result": {...}}

``crc`` is the CRC32 of the rest of the record (serialized with sorted
keys), so bit rot and partially-flushed lines are detected, not just
lines that fail to parse.  Records written before the field existed are
still accepted (``repro cache verify`` reports them as *legacy*).

Each :class:`ResultStore` instance appends only to its **own** segment
file, so any number of processes — local sweep workers, ``repro worker``
daemons sharing a cache directory over NFS — can write concurrently
without locks and without ever interleaving bytes inside a record.
Readers merge the base file and every segment into one index
(base first, then segments in name order; the newest record for a key
wins), so a record is visible to other processes as soon as its
``put`` returns.

Consistency guarantee: each appended record is written with a *single*
``os.write`` of one complete ``line + "\\n"`` to a file opened with
``O_APPEND``.  POSIX makes such appends atomic with respect to
concurrent readers and writers of the same file, so a reader never
observes a torn (half-written) record — it sees the whole line or no
line at all.  Corrupt or truncated lines (e.g. a hard kill mid-write on
a non-POSIX filesystem) are skipped on load, and an unwritable cache
directory degrades the store to a no-op rather than failing the run.

Keys combine the spec identity (config content hash × workload × run
length × seed) with the package's code-version fingerprint, so editing
any simulator source invalidates every stored result.

:meth:`ResultStore.compact` folds every segment (and superseded base
records) back into a single fresh ``results.jsonl`` and deletes the
merged segments — run it between sweeps to keep the directory tidy.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time
import uuid
import zlib

from repro.engine.faults import fault
from repro.engine.version import code_version
from repro.uarch.stats import SimResult

_STORE_FILE = "results.jsonl"
_SEGMENT_GLOB = "results-*.jsonl"


class ChecksumError(ValueError):
    """A store record parsed as JSON but failed its CRC32 check."""


def _record_crc(body):
    """The CRC32 a record body (sans ``crc`` field) should carry."""
    payload = json.dumps(body, sort_keys=True)
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def _parse_record(line):
    """Parse and checksum one store line.

    Returns ``(qualified key, record dict)``.  Raises
    :class:`ChecksumError` on a CRC mismatch and the usual
    ``ValueError``/``KeyError``/``TypeError`` on malformed lines.
    Records without a ``crc`` field (written by older versions) are
    accepted unchecked.
    """
    record = json.loads(line)
    qualified = f"{record['key']}@{record['version']}"
    crc = record.get("crc")
    if crc is not None:
        body = {k: v for k, v in record.items() if k != "crc"}
        if _record_crc(body) != crc:
            raise ChecksumError(f"CRC mismatch for key {record['key']!r}")
    return qualified, record


def default_cache_dir():
    """The store directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def _writer_id():
    """A segment name component unique to this writer.

    Hostname × pid disambiguates writers sharing a network filesystem;
    the random token disambiguates pid reuse and multiple stores in one
    process.
    """
    host = socket.gethostname().split(".")[0][:24] or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class ResultStore:
    """Sharded append-only JSONL store mapping spec keys to results.

    Each instance lazily creates its own segment file on first
    :meth:`put` and reads the union of the base file and every segment.
    All methods are best-effort with respect to I/O errors: an
    unwritable directory silently disables persistence (the in-memory
    index keeps serving the current process).

    Parameters
    ----------
    directory:
        Cache directory (default :func:`default_cache_dir`).
    version:
        Code-version fingerprint qualifying every key (default: the
        real :func:`~repro.engine.version.code_version` of the package).
    """

    def __init__(self, directory=None, version=None):
        self.directory = pathlib.Path(directory or default_cache_dir())
        self.path = self.directory / _STORE_FILE
        self.version = version or code_version()
        self._index = None  # qualified key -> record line (lazy)
        self._broken = False
        self._segment_path = None  # created on first put

    # -- identity ----------------------------------------------------

    def _qualified(self, key):
        return f"{key}@{self.version}"

    # -- reading -----------------------------------------------------

    def segment_paths(self):
        """Every segment file currently in the directory (name order)."""
        try:
            return sorted(self.directory.glob(_SEGMENT_GLOB))
        except OSError:
            return []

    def _read_files(self):
        """The base file plus every segment, in merge order."""
        return [self.path, *self.segment_paths()]

    def _load_index(self):
        # The index keeps each valid record's JSON line, parsed again
        # on get: a line is about a fifth of the size of its parsed
        # dict, and a batch loads every stored record's entry before
        # forking its pool.
        if self._index is not None:
            return self._index
        self._index = {}
        for path in self._read_files():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            qualified, record = _parse_record(line)
                        except (ValueError, KeyError, TypeError):
                            continue  # truncated/corrupt/bad-CRC line
                        if "result" in record:
                            self._index[qualified] = line
            except OSError:
                continue
        return self._index

    def refresh(self):
        """Drop the in-memory index so the next read re-scans disk.

        Concurrent writers append to their own segments; a long-lived
        reader calls this to pick up records written after its first
        load.
        """
        self._index = None

    def get(self, key):
        """The stored :class:`SimResult` for ``key``, or ``None``."""
        line = self._load_index().get(self._qualified(key))
        if line is None:
            return None
        try:
            return SimResult.from_dict(json.loads(line)["result"])
        except (TypeError, ValueError):
            return None

    # -- writing -----------------------------------------------------

    def _segment(self):
        if self._segment_path is None:
            self._segment_path = (self.directory
                                  / f"results-{_writer_id()}.jsonl")
        return self._segment_path

    def put(self, key, result):
        """Persist one result (appends immediately; best-effort).

        The record lands in this store's private segment file as one
        atomic ``O_APPEND`` write, so concurrent readers of the cache
        directory either see the whole record or none of it.

        The transient ``extra["profile"]`` block (attached by
        ``REPRO_PROFILE`` runs — see :mod:`repro.obs.profile`) is
        stripped before persisting, so stored records are
        byte-identical whether or not the run was profiled.
        """
        record = result.to_dict()
        extra = record.get("extra")
        if isinstance(extra, dict) and "profile" in extra:
            record["extra"] = {k: v for k, v in extra.items()
                               if k != "profile"}
        body = {"key": key, "version": self.version, "result": record}
        line = json.dumps(dict(body, crc=_record_crc(body)),
                          sort_keys=True)
        self._load_index()[self._qualified(key)] = line
        if self._broken:
            return
        data = (line + "\n").encode("utf-8")
        if fault("store.corrupt_append"):
            # Valid JSON whose CRC cannot match: only the checksum can
            # catch this one.
            bad = json.dumps(dict(body, crc=_record_crc(body) ^ 1),
                             sort_keys=True)
            data = (bad + "\n").encode("utf-8")
        elif fault("store.torn_append"):
            # The visible aftermath of a crash mid-append: a truncated
            # record on its own line.
            data = data[:max(1, len(data) // 2)] + b"\n"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            while not self._append(data):
                pass
        except OSError:
            self._broken = True  # unwritable cache dir: keep simulating

    def _append(self, data):
        """Append ``data`` to this store's segment with one write.

        False when the write landed in a segment that a concurrent
        :meth:`compact` had already unlinked (this put opened it before
        the compactor's rename, and wrote after its last drain): the
        caller appends again, to a fresh segment at the same path.  A
        record the compactor did rescue is then stored twice, which is
        harmless — the newest record per key wins.
        """
        fd = os.open(self._segment(),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)  # one write: never torn for readers
            return os.fstat(fd).st_nlink > 0
        finally:
            os.close(fd)

    # -- maintenance -------------------------------------------------

    def compact(self, prune_stale=False):
        """Merge every segment and superseded record into a fresh base.

        Reads the base file plus all segments, keeps the newest record
        per qualified key (``prune_stale=True`` also drops records from
        older code versions that no current reader can hit), rewrites
        ``results.jsonl`` atomically (temp file + ``os.replace``), and
        retires the segments that were merged in.  Corrupt lines are
        dropped.

        **Safe against live writers.**  A record appended concurrently
        with compaction is never lost: each segment is retired by
        *renaming* it out of the read set (a writer's next ``put``
        recreates a fresh segment at the original path), and the
        renamed inode is re-read through a held descriptor — including
        one final check after the unlink — so any record a concurrent
        ``put`` squeezed in through a pre-rename descriptor is caught
        and appended to the new base.  A ``put`` whose write lands after
        that final check finds its inode unlinked and appends again to
        a fresh segment.  Segments created after the scan
        simply survive to the next compaction.

        Returns ``(kept, dropped)`` record counts; late-arriving
        records rescued from a racing writer count as kept.
        """
        sources = self._read_files()
        latest = {}  # qualified key -> json line (last wins, order kept)
        consumed = {}  # segment path -> bytes merged from it
        dropped = 0
        saw_any = False

        def merge_line(line):
            nonlocal dropped
            line = line.strip()
            if not line:
                return 0
            try:
                qualified, record = _parse_record(line)
            except (ValueError, KeyError, TypeError):
                dropped += 1  # truncated/corrupt/bad-CRC line
                return 0
            if prune_stale and record["version"] != self.version:
                dropped += 1
                return 0
            if qualified in latest:
                dropped += 1  # superseded earlier record
            latest[qualified] = line
            return 1

        for path in sources:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            saw_any = True
            if path != self.path:
                # A racing put may be mid-write: merge only whole lines,
                # and leave the rest for the segment's tail drain.
                data = data[:data.rfind(b"\n") + 1]
                consumed[path] = len(data)
            for line in data.decode("utf-8", errors="replace").splitlines():
                merge_line(line)
        if not saw_any:
            return 0, 0
        tmp_path = self.path.with_suffix(".jsonl.tmp")
        try:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                for line in latest.values():
                    fh.write(line + "\n")
            os.replace(tmp_path, self.path)
        except OSError:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            return 0, 0
        kept = len(latest)
        for path in sources[1:]:
            kept += self._retire_segment(path, consumed.get(path, 0))
        if self._segment_path in sources[1:]:
            self._segment_path = None  # next put starts a fresh segment
        self._index = None  # force a reload from the rewritten files
        return kept, dropped

    def _retire_segment(self, path, consumed):
        """Remove one merged segment without losing racing appends.

        Renames the segment (so writers re-open a fresh file at the
        original path and readers stop seeing the already-merged copy),
        then drains any bytes appended past ``consumed`` through a held
        descriptor — re-checking after the unlink, when only a write
        already in flight through a pre-rename descriptor could still
        land — and appends those whole lines to the base.  Returns the
        number of rescued records.
        """
        retired = path.with_suffix(".jsonl.compacting")
        try:
            os.replace(path, retired)
            fd = os.open(retired, os.O_RDONLY)
        except OSError:
            return 0  # vanished, or another compactor claimed it
        rescued = 0
        try:
            count, consumed = self._drain_tail(fd, consumed)
            rescued += count
            try:
                os.unlink(retired)
            except OSError:
                pass
            # Post-unlink check: a put() that opened the segment before
            # the rename writes into this (now anonymous) inode; the
            # descriptor still reads it.
            count, consumed = self._drain_tail(fd, consumed)
            rescued += count
        finally:
            os.close(fd)
        return rescued

    def _drain_tail(self, fd, offset):
        """Append records past ``offset`` of a retired segment to the base.

        Reads until two consecutive size checks agree, then appends the
        complete lines to ``results.jsonl`` with one ``O_APPEND`` write —
        later lines win on merge, so the rescued records override
        nothing newer.  A line still being written (a reader can see
        part of a racing write) is left past the returned offset for
        the next drain; if none comes, its writer finds the segment
        unlinked and appends the record again.  Returns ``(record
        count, new offset)``.
        """
        tail = b""
        while True:
            size = os.fstat(fd).st_size
            if size <= offset + len(tail):
                break
            os.lseek(fd, offset + len(tail), os.SEEK_SET)
            tail += os.read(fd, size - offset - len(tail))
        tail = tail[:tail.rfind(b"\n") + 1]
        offset += len(tail)
        if not tail.rstrip():
            return 0, offset
        lines = [line for line in tail.split(b"\n") if line.strip()]
        try:
            base_fd = os.open(self.path,
                              os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(base_fd, b"\n".join(lines) + b"\n")
            finally:
                os.close(base_fd)
        except OSError:
            return 0, offset
        return len(lines), offset

    def stats(self):
        """Operator-facing store summary (``repro cache stats``).

        Scans the base file and every segment fresh from disk (so a
        serving store's live writers are reflected) and returns::

            {"directory": ..., "files": N, "segments": N, "bytes": N,
             "records": N,        # unique (key, version) pairs
             "lines": N,          # raw stored lines incl. superseded
             "superseded": N, "corrupt": N,
             "crc_failures": N,   # corrupt lines caught by the CRC
             "quarantined": N,    # records parked in corrupt-*.jsonl
             "workloads": {workload: unique records},
             "versions": {code version: unique records}}

        The per-workload breakdown parses each key's leading
        ``workload:`` component, so an operator can see which
        benchmarks dominate a serving cache without grepping JSONL.
        """
        seen = {}  # qualified key -> workload
        lines = corrupt = crc_failures = total_bytes = files = 0
        paths = [path for path in self._read_files()]
        segments = 0
        for position, path in enumerate(paths):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            files += 1
            segments += position > 0
            total_bytes += len(data)
            for line in data.decode("utf-8", errors="replace").splitlines():
                line = line.strip()
                if not line:
                    continue
                lines += 1
                try:
                    qualified, record = _parse_record(line)
                    key = record["key"]
                except ChecksumError:
                    corrupt += 1
                    crc_failures += 1
                    continue
                except (ValueError, KeyError, TypeError):
                    corrupt += 1
                    continue
                workload = str(key).partition(":")[0] or "?"
                seen[qualified] = (workload, str(record["version"]))
        workloads, versions = {}, {}
        for workload, version in seen.values():
            workloads[workload] = workloads.get(workload, 0) + 1
            versions[version] = versions.get(version, 0) + 1
        quarantined = 0
        try:
            for path in self.directory.glob("corrupt-*.jsonl"):
                with open(path, "rb") as fh:
                    quarantined += sum(1 for raw in fh.read().splitlines()
                                       if raw.strip())
        except OSError:
            pass
        return {
            "directory": str(self.directory),
            "files": files,
            "segments": segments,
            "bytes": total_bytes,
            "records": len(seen),
            "lines": lines,
            "superseded": lines - corrupt - len(seen),
            "corrupt": corrupt,
            "crc_failures": crc_failures,
            "quarantined": quarantined,
            "workloads": dict(sorted(workloads.items())),
            "versions": dict(sorted(versions.items())),
        }

    def verify(self, repair=False):
        """Scan the base file and every segment for corrupt records.

        The integrity pass behind ``repro cache verify``: every line is
        parsed and, when it carries a ``crc`` field, checksummed.
        Lines are classified as valid, *legacy* (parse fine but predate
        the CRC field) or *corrupt* (unparseable, missing fields, or a
        CRC mismatch).

        With ``repair=True`` every corrupt line is quarantined —
        appended to ``corrupt-<ts>.jsonl`` in the cache directory for
        forensics — and each affected file is rewritten without them
        (temp file + atomic ``os.replace``).  Repair is an offline
        maintenance operation: run it while no writer is appending, or
        a record being written concurrently with the rewrite can be
        lost (reads, including ``repair=False`` scans, are always
        safe).

        Returns a report dict::

            {"directory": ..., "files": N, "records": N, "checked": N,
             "legacy": N, "corrupt": N, "crc_failures": N,
             "bad": ["<file>:<line>", ...],
             "repaired": N, "quarantine": "<path>" | None}
        """
        report = {"directory": str(self.directory), "files": 0,
                  "records": 0, "checked": 0, "legacy": 0, "corrupt": 0,
                  "crc_failures": 0, "bad": [], "repaired": 0,
                  "quarantine": None}
        bad_lines = []
        for path in self._read_files():
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            report["files"] += 1
            keep = []
            bad_here = 0
            text = data.decode("utf-8", errors="replace")
            for number, raw in enumerate(text.splitlines(), 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    _, record = _parse_record(line)
                except ChecksumError:
                    report["crc_failures"] += 1
                except (ValueError, KeyError, TypeError):
                    pass
                else:
                    report["records"] += 1
                    if "crc" in record:
                        report["checked"] += 1
                    else:
                        report["legacy"] += 1
                    keep.append(line)
                    continue
                report["corrupt"] += 1
                report["bad"].append(f"{path.name}:{number}")
                bad_lines.append(line)
                bad_here += 1
            if repair and bad_here:
                tmp = path.with_suffix(".jsonl.verify-tmp")
                try:
                    with open(tmp, "w", encoding="utf-8") as fh:
                        for line in keep:
                            fh.write(line + "\n")
                    os.replace(tmp, path)
                    report["repaired"] += bad_here
                except OSError:
                    try:
                        tmp.unlink()
                    except OSError:
                        pass
        if repair and bad_lines and report["repaired"]:
            quarantine = (self.directory
                          / f"corrupt-{int(time.time())}.jsonl")
            try:
                with open(quarantine, "a", encoding="utf-8") as fh:
                    for line in bad_lines:
                        fh.write(line + "\n")
                report["quarantine"] = str(quarantine)
            except OSError:
                pass
            self._index = None  # re-scan the repaired files
        return report

    # -- container protocol ------------------------------------------

    def __contains__(self, key):
        return self._qualified(key) in self._load_index()

    def __len__(self):
        return len(self._load_index())
