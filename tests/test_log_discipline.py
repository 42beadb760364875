"""The append-only JSONL discipline shared by the result store, the
request journal and the trace: how each log classifies its lines at
load and in ``eric doctor``, that an append after a torn tail
survives, and that a tail-only reload holds what a full load would."""

import json
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import STORE_SCHEMA, FarmRecord, ResultStore
from repro.farm.doctor import diagnose_store
from repro.obs.trace import (TRACE_FILENAME, TRACE_SCHEMA, Tracer,
                             diagnose_trace, read_trace)
from repro.service.daemon import (JOURNAL_SCHEMA, JournalRecord,
                                  JournalStore)
from repro.service.daemon.doctor import diagnose_journal

FOREIGN_SCHEMA = 99


def store_line(key: str, version: int) -> str:
    return FarmRecord(
        key=key, name="probe", workload=None, source_digest="d" * 64,
        config={}, params={}, simulate=False, analyze=False, repeats=1,
        plain_size=10, package_size=10 + version, signed_bytes=10,
        baseline_s=0.0, package_total_s=0.0, compile_s=0.0,
        signature_s=0.0, encryption_s=0.0, packaging_s=0.0).to_json()


def journal_line(key: str, version: int) -> str:
    return JournalRecord(
        request_id=key, fleet={"name": "edge"},
        state="submitted" if version == 1 else "done",
        submitted_at=float(version), updated_at=float(version)).to_json()


def trace_line(key: str, version: int) -> str:
    return json.dumps({
        "schema": TRACE_SCHEMA, "trace_id": f"t-{key}", "span_id": key,
        "parent_id": None, "name": "daemon.request", "start_s": 1.0,
        "end_s": None if version == 1 else 2.0, "ok": True,
        "detail": "", "attrs": {}}, sort_keys=True, separators=(",", ":"))


def load_store(root):
    store = ResultStore(root)
    return ({key: store.get(key).package_size - 10
             for key in store.keys()}, store.skipped_lines)


def load_journal(root):
    journal = JournalStore(root)
    return ({record.request_id: 1 if record.state == "submitted" else 2
             for record in journal.records()}, journal.skipped_lines)


def load_trace(root):
    spans, skipped = read_trace(root)
    return ({span_id: 2 if span.finished else 1
             for span_id, span in spans.items()}, skipped)


@dataclass(frozen=True)
class Log:
    name: str
    filename: str
    schema: int
    key_field: str
    line: Callable[[str, int], str]
    load: Callable
    #: appends one fresh record through the log's own writer and
    #: returns its key
    append: Callable
    #: corrupt lines ``eric doctor`` reports for the log's directory
    doctor_corrupt: Callable


def append_store(root):
    ResultStore(root).put(FarmRecord.from_json(store_line("fresh", 1)))
    return "fresh"


def append_journal(root):
    return JournalStore(root).submit({"name": "late"}).request_id


def append_trace(root):
    return Tracer(root).start("daemon.request").span_id


LOGS = (
    Log("store", "results.jsonl", STORE_SCHEMA, "key", store_line,
        load_store, append_store,
        lambda root: diagnose_store(root).corrupt),
    Log("journal", "journal.jsonl", JOURNAL_SCHEMA, "request_id",
        journal_line, load_journal, append_journal,
        lambda root: diagnose_journal(root).corrupt),
    Log("trace", TRACE_FILENAME, TRACE_SCHEMA, "span_id", trace_line,
        load_trace, append_trace,
        lambda root: diagnose_trace(root).skipped_lines),
)


@pytest.fixture(params=LOGS, ids=lambda log: log.name)
def log(request):
    return request.param


def write_fixture(log: Log, root) -> None:
    """One line of every kind the discipline distinguishes; the file
    ends in a torn tail, as a writer killed mid-line leaves it."""
    lines = [
        log.line("a", 1),                           # superseded below
        "",                                         # blank: not a line
        "   ",                                      # blank: not a line
        "[1]",                                      # corrupt: not object
        '"s"',                                      # corrupt: not object
        json.dumps({"note": "no schema"}),          # corrupt: no schema
        json.dumps({"schema": True,                 # corrupt: bool schema
                    log.key_field: "b"}),
        json.dumps({"schema": FOREIGN_SCHEMA,       # foreign
                    log.key_field: "old"}),
        json.dumps({"schema": log.schema,           # corrupt: no revival
                    log.key_field: "x"}),
        log.line("a", 2),
        log.line("b", 2),
    ]
    root.mkdir(parents=True, exist_ok=True)
    (root / log.filename).write_text(
        "\n".join(lines) + "\n" + log.line("c", 2)[:25],   # torn tail
        encoding="utf-8")


class TestLineClassification:
    # non-blank lines: 1 superseded + 6 corrupt + 1 foreign + 2 live
    TOTAL, CORRUPT, FOREIGN, LIVE, SUPERSEDED = 10, 6, 1, 2, 1

    def test_load_keeps_last_record_per_key_and_counts_skips(
            self, log, tmp_path):
        write_fixture(log, tmp_path)
        records, skipped = log.load(tmp_path)
        assert records == {"a": 2, "b": 2}
        assert skipped == self.CORRUPT + self.FOREIGN

    def test_store_doctor(self, tmp_path):
        write_fixture(LOGS[0], tmp_path)
        diagnosis = diagnose_store(tmp_path)
        assert diagnosis.exists
        assert (diagnosis.total_lines, diagnosis.live_records,
                diagnosis.superseded, diagnosis.corrupt,
                diagnosis.foreign_schema) == (
            self.TOTAL, self.LIVE, self.SUPERSEDED, self.CORRUPT,
            self.FOREIGN)
        assert diagnosis.schema_counts == {FOREIGN_SCHEMA: 1,
                                           STORE_SCHEMA: 3}
        assert not diagnosis.healthy
        text = diagnosis.describe()
        assert (f"  {self.TOTAL} line(s): 2 live record(s), 1 superseded, "
                f"6 corrupt, 1 foreign-schema") in text
        assert text.endswith("verdict: NEEDS ATTENTION")

    def test_journal_doctor(self, tmp_path):
        write_fixture(LOGS[1], tmp_path)
        diagnosis = diagnose_journal(tmp_path, now=10.0)
        assert diagnosis.exists
        assert (diagnosis.total_lines, diagnosis.superseded,
                diagnosis.corrupt, diagnosis.foreign_schema) == (
            self.TOTAL, self.SUPERSEDED, self.CORRUPT, self.FOREIGN)
        assert diagnosis.state_counts == {"done": 2}
        assert diagnosis.stuck == ()
        assert not diagnosis.healthy
        text = diagnosis.describe()
        assert (f"  {self.TOTAL} line(s): 0 live / 2 terminal "
                f"request(s), 1 superseded, 6 corrupt, 1 "
                f"foreign-schema") in text
        assert text.endswith("verdict: NEEDS ATTENTION")

    def test_trace_doctor(self, tmp_path):
        write_fixture(LOGS[2], tmp_path)
        diagnosis = diagnose_trace(tmp_path)
        assert diagnosis.exists
        assert (diagnosis.spans, diagnosis.traces,
                diagnosis.skipped_lines) == (2, 2, 7)
        # skipped lines are tolerated; only the span tree decides
        assert diagnosis.healthy
        assert "7 corrupt line(s) skipped" in diagnosis.describe()


def test_append_after_torn_tail_survives(log, tmp_path):
    """A writer killed mid-line leaves no final newline; the next
    append must start a fresh line instead of being glued onto the
    fragment (and then lost with it)."""
    root = tmp_path / log.name
    root.mkdir()
    fragment = log.line("c", 2)[:25]
    (root / log.filename).write_text(log.line("a", 2) + "\n" + fragment,
                                     encoding="utf-8")
    key = log.append(root)
    records, skipped = log.load(root)
    assert key in records and "a" in records
    assert skipped == 1
    text = (root / log.filename).read_text(encoding="utf-8")
    assert text.startswith(log.line("a", 2) + "\n" + fragment + "\n")


def test_non_utf8_line_is_one_corrupt_line(log, tmp_path):
    """One undecodable byte sequence costs its own line, never the
    whole file: loads keep both neighbours and the doctor counts it."""
    (tmp_path / log.filename).write_bytes(
        log.line("a", 1).encode() + b"\n\xff\xfe\n"
        + log.line("b", 1).encode() + b"\n")
    assert log.load(tmp_path) == ({"a": 1, "b": 1}, 1)
    assert log.doctor_corrupt(tmp_path) == 1


def test_span_after_torn_tail_is_an_unfinished_request(tmp_path):
    (tmp_path / TRACE_FILENAME).write_text(trace_line("a", 2)[:25],
                                           encoding="utf-8")
    Tracer(tmp_path).start("daemon.request")   # the daemon then dies
    diagnosis = diagnose_trace(tmp_path)
    assert diagnosis.unfinished_roots == 1
    assert not diagnosis.healthy


def _put_records(root, prefix: str, count: int) -> None:
    """Child-process body: append ``count`` records to a shared store."""
    store = ResultStore(root)
    for i in range(count):
        store.put(FarmRecord.from_json(store_line(f"{prefix}-{i}", 1)))


def test_concurrent_appends_interleave_whole_lines(tmp_path):
    """More writers than cores append to one file at once; each append
    checks for a torn tail before writing, and every line must still
    land whole."""
    context = multiprocessing.get_context("spawn")
    writers = [context.Process(target=_put_records,
                               args=(tmp_path, f"w{n}", 200))
               for n in range(4)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
        assert writer.exitcode == 0
    records, skipped = load_store(tmp_path)
    assert skipped == 0
    assert len(records) == 4 * 200


# -- tail-only reload ---------------------------------------------------

@dataclass(frozen=True)
class KeyedLog:
    """A keyed log class and how to write one of its records."""

    name: str
    open: Callable
    line: Callable[[str, int], str]
    write: Callable


KEYED_LOGS = (
    KeyedLog("store", ResultStore, store_line,
             lambda store, line: store.put(FarmRecord.from_json(line))),
    KeyedLog("journal", JournalStore, journal_line,
             lambda journal, line: journal.append(
                 JournalRecord.from_json(line))),
)

#: one step against the shared file; the int picks a key, a cut point
#: (past the end: a whole record with no newline) or a prefix length
STEP = st.one_of(
    st.tuples(st.sampled_from(("append", "append_other")),
              st.integers(0, 2)),
    st.tuples(st.just("fragment"), st.integers(0, 1 << 10)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.sampled_from(("corrupt", "non_utf8", "foreign",
                               "compact", "rewrite", "delete")),
              st.just(0)),
)


def _state(log) -> tuple[dict, int]:
    return {key: log.get(key) for key in log.keys()}, log.skipped_lines


def _raw_append(path: Path, data: bytes) -> None:
    """Append bytes as a foreign writer would: no torn-tail repair."""
    with open(path, "ab") as handle:
        handle.write(data)


def _apply(kind: KeyedLog, step: tuple[str, int], n: int, log, other,
           path: Path) -> None:
    """Perform step ``n`` of a sequence.  Every line a step writes
    carries ``n``, so no in-place rewrite reproduces the bytes it
    replaces."""
    op, arg = step
    size = path.stat().st_size if path.exists() else 0
    if op == "append":
        kind.write(log, kind.line("abc"[arg], n))
    elif op == "append_other":
        kind.write(other, kind.line("abc"[arg], n))
    elif op == "fragment":
        line = kind.line(f"torn-{n}", n).encode()
        _raw_append(path, line[:arg])
    elif op == "corrupt":
        _raw_append(path, f"corrupt line {n}\n".encode())
    elif op == "non_utf8":
        _raw_append(path, b"\xff\xfe" + str(n).encode() + b"\n")
    elif op == "foreign":
        _raw_append(path, json.dumps(
            {"schema": FOREIGN_SCHEMA, "n": n}).encode() + b"\n")
    elif op == "compact":
        other.compact()
    elif op == "truncate":
        if path.exists():
            os.truncate(path, arg % (size + 1))
    elif op == "rewrite":
        # same inode, longer and different content: only the bytes
        # before the resume point can tell it from an append
        lines = []
        while sum(map(len, lines)) <= size:
            lines.append(kind.line(f"rewrite-{n}-{len(lines)}", n) + "\n")
        path.write_bytes("".join(lines).encode())
    else:
        path.unlink(missing_ok=True)


@pytest.mark.parametrize("kind", KEYED_LOGS, ids=lambda kind: kind.name)
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(STEP, max_size=20))
def test_reload_matches_a_fresh_load(kind, steps):
    """After any sequence of appends (own and foreign), torn tails,
    bad lines, compactions, in-place truncations and rewrites and
    deletions, a reload holds exactly what a fresh instance loads."""
    with tempfile.TemporaryDirectory() as root:
        log, other = kind.open(root), kind.open(root)
        for n, step in enumerate(steps, start=1):
            _apply(kind, step, n, log, other, log.path)
            log.reload()
            assert _state(log) == _state(kind.open(root)), steps[:n]
