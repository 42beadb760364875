"""Append-only JSONL logs: the one discipline behind every log file.

The farm's result store (``results.jsonl``), the daemon's request
journal (``journal.jsonl``) and the tracer (``trace.jsonl``) all keep
one JSON object per line under these rules:

* **Whole-line appends.**  An append is one ``write`` of complete
  lines, so writers in several processes (``eric submit`` beside a
  running daemon, farm workers beside their coordinator) interleave
  whole lines, never fragments.
* **Torn tails.**  A writer killed mid-line leaves the file without a
  final newline.  The next append starts a new line first, so the
  fragment is the only line lost.
* **Last record per key wins** at load; blank lines are ignored.
* **Line classification.**  A line is *foreign* when it is a JSON
  object whose integer ``schema`` (not a bool) differs from the log's
  current one: a record another code version wrote.  Any other line
  that does not revive as a record is *corrupt*.  Both are counted
  and skipped, never fatal.
* **Atomic rewrites.**  Compaction, merges and snapshots write a
  sibling temp file, ``fsync`` it and :func:`os.replace` it over the
  target, so a crash leaves the old file intact, never a half-written
  one.

:func:`scan_lines`, :func:`append_lines` and :func:`atomic_rewrite`
implement the rules; :class:`AppendLog` is the keyed, write-through
in-memory view the result store and the journal build on.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, Generic, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Scan(Generic[T]):
    """What one pass over a log file found."""

    #: the file was there (a missing log scans as empty)
    exists: bool
    #: last valid record per key
    records: dict[str, T]
    #: non-blank lines
    total: int
    #: lines that revived as records, superseded ones included
    valid: int
    corrupt: int
    foreign: int
    #: line count per declared schema: valid and foreign lines
    schemas: dict[int, int]
    #: valid lines whose key was outside the scan's ``only`` filter
    ignored: int

    @property
    def skipped(self) -> int:
        """Lines a load drops: corrupt plus foreign."""
        return self.corrupt + self.foreign

    @property
    def superseded(self) -> int:
        """Valid lines shadowed by a later line for the same key."""
        return self.valid - len(self.records)


def scan_lines(path: Path, revive: Callable[[object], T | None],
               key: Callable[[T], str], schema: int,
               only: Container[str] | None = None) -> Scan[T]:
    """Classify every line of ``path`` and keep the last record per
    ``key``.  ``revive`` turns a parsed line into a record (None when
    it is not one) and ``schema`` is the log's current schema.  With
    ``only``, records under other keys are counted as ignored."""
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        return Scan(exists=False, records={}, total=0, valid=0,
                    corrupt=0, foreign=0, schemas={}, ignored=0)
    records: dict[str, T] = {}
    total = valid = corrupt = ignored = 0
    schemas: dict[int, int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        total += 1
        try:
            data = json.loads(line)
        except ValueError:
            corrupt += 1
            continue
        record = revive(data)
        if record is None:
            declared = data.get("schema") if isinstance(data, dict) \
                else None
            if isinstance(declared, int) \
                    and not isinstance(declared, bool) \
                    and declared != schema:
                schemas[declared] = schemas.get(declared, 0) + 1
            else:
                corrupt += 1
            continue
        record_key = key(record)
        if only is not None and record_key not in only:
            ignored += 1
            continue
        valid += 1
        records[record_key] = record
    foreign = sum(schemas.values())
    if valid:
        schemas[schema] = valid
    return Scan(exists=True, records=records, total=total, valid=valid,
                corrupt=corrupt, foreign=foreign, schemas=schemas,
                ignored=ignored)


def append_lines(path: Path, text: str) -> None:
    """Append ``text`` (whole lines, each ending in a newline) with one
    ``write``, first ending a torn tail the file may have."""
    data = text.encode("utf-8")
    with open(path, "a+b") as handle:
        if data and handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)


def atomic_rewrite(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a sibling temp file,
    ``fsync`` and :func:`os.replace`."""
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(text)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class AppendLog(Generic[T]):
    """A keyed log held in memory: every write goes through to disk
    first, the last record per key wins, and one lock guards both.

    Thread-safe in-process; across processes it relies on whole-line
    appends and on loads tolerating a torn tail.  Subclasses declare
    the class attributes below.
    """

    #: the log's file name under its root directory
    filename: str
    #: the record class: ``from_dict(data)`` revives a parsed line (None
    #: when it is not a current record), ``to_json()`` renders one, and
    #: its ``schema`` field defaults to the current schema
    record_type: type
    #: record -> the key it is filed under
    key: Callable[[T], str]
    #: record -> sort key of its line in a compacted file
    order: Callable[[T], object]
    #: what an operator can do about skipped lines (ends the warning)
    skipped_hint: str

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.filename
        self._lock = threading.Lock()
        self._load()

    @classmethod
    def scan(cls, path: Path,
             only: Container[str] | None = None) -> Scan[T]:
        """:func:`scan_lines` over a file in this log's format."""
        return scan_lines(path, cls.record_type.from_dict, cls.key,
                          cls.record_type.schema, only)

    def _load(self) -> None:
        found = self.scan(self.path)
        self._records = found.records
        #: corrupt or foreign lines the last load skipped
        self.skipped_lines = found.skipped

    def reload(self) -> None:
        """Re-read the file, picking up records other processes
        appended.  Every in-process write goes through to disk first,
        so the file is always at least as new as memory."""
        with self._lock:
            self._load()

    def skipped_warning(self) -> str | None:
        """One-line operator warning when the last load skipped corrupt
        or schema-mismatched lines; None when it loaded clean.  Shared
        by every CLI entry point so the wording stays uniform."""
        if not self.skipped_lines:
            return None
        return (f"{self.path} has {self.skipped_lines} corrupt or "
                f"schema-mismatched line(s); {self.skipped_hint}")

    def get(self, key: str) -> T | None:
        with self._lock:
            return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def keys(self) -> set[str]:
        with self._lock:
            return set(self._records)

    def _append(self, record: T) -> T:
        """Remember ``record`` and append its line; it wins future
        lookups."""
        with self._lock:
            self._records[self.key(record)] = record
            append_lines(self.path, record.to_json() + "\n")
        return record

    def compact(self) -> int:
        """Atomically rewrite the file with one line per live key,
        sorted by :attr:`order`, dropping superseded, corrupt and
        foreign lines; returns the line count.

        The lock is in-process only: an append another process makes
        between :meth:`_reread` and the rewrite is lost, so compact
        while other writers are quiescent.
        """
        with self._lock:
            merged = self._reread()
            self._rewrite(merged)
            return len(merged)

    def _reread(self) -> dict[str, T]:
        """The file's records merged with memory's (caller holds the
        lock).  Records other processes appended since the last load
        merge in instead of vanishing; where both hold a key the file
        wins, since every write goes through to disk first."""
        merged = self.scan(self.path).records
        for key, record in self._records.items():
            merged.setdefault(key, record)
        return merged

    def _rewrite(self, records: dict[str, T]) -> None:
        """Adopt ``records`` and atomically rewrite the file with them
        (caller holds the lock)."""
        self._records = records
        atomic_rewrite(self.path, "".join(
            record.to_json() + "\n"
            for record in sorted(records.values(), key=self.order)))
        self.skipped_lines = 0
