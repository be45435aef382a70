"""An independent bit-identity oracle for the trace generator.

``data/record_digests.json`` pins a SHA-256 digest of the first
:data:`N` records of ``SyntheticTrace(workload, seed)`` for every
registry workload and three seeds, taken from the record-at-a-time
generator that preceded the slot-coded one.  Every field of
:class:`~repro.isa.instruction.TraceRecord` goes into the digest, so
any change to the stream — an RNG draw moved, a slot mislabelled, an
address off by one — fails here.

The digests are recomputed from both forms the trace cache serves:
the slot-coded columns (decoded through the slot table) and the Python
record list.

Regenerate (only for a deliberate change to the generated streams)::

    PYTHONPATH=src python -m tests.trace.test_record_digests
"""

import hashlib
import json
import sys
from array import array
from pathlib import Path

import pytest

from repro.trace.generator import clear_materialized_traces, materialized_trace
from repro.trace.workloads import WORKLOADS, load_workload

N = 40_000
SEEDS = (1234, 1, 7)
FIELDS = ("pc", "op", "dest", "src1", "src2", "addr", "taken", "target")
DATA = Path(__file__).with_name("data") / "record_digests.json"


def digest(fields):
    """SHA-256 over the fields of a record run, field-major: each of
    :data:`FIELDS` in order as little-endian int64 values."""
    h = hashlib.sha256()
    for name in FIELDS:
        column = array("q", map(int, fields[name]))
        if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
            column.byteswap()
        h.update(column.tobytes())
    return h.hexdigest()


def record_fields(records):
    """The :data:`FIELDS` of a record list, one list per field."""
    return {name: [getattr(r, name) for r in records] for name in FIELDS}


def _load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_materialized_traces()
    yield
    clear_materialized_traces()


def test_every_workload_and_seed_is_pinned():
    assert set(_load()) == {f"{w}/{s}" for w in WORKLOADS for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cached_trace_matches_pinned_digest(workload, seed):
    expected = _load()[f"{workload}/{seed}"]
    trace = materialized_trace(load_workload(workload), seed, N)
    columns = trace.columns()
    assert len(columns) == N
    assert digest(columns.fields()) == expected, "slot columns"
    assert digest(record_fields(list(trace))) == expected, "record form"


def _regenerate():
    from repro.trace.generator import SyntheticTrace

    digests = {
        f"{w}/{s}": digest(record_fields(
            SyntheticTrace(load_workload(w), s).take(N)))
        for w in sorted(WORKLOADS) for s in SEEDS
    }
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({"records": N, "fields": list(FIELDS),
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
