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
* **Tail reloads.**  :meth:`AppendLog.reload` parses only the bytes
  appended since its last read.  It remembers a resume point: the
  file's ``(st_dev, st_ino)``, the offset just past the last complete
  (newline-terminated) line, and the bytes before that offset (the
  whole last line, and at least :data:`ANCHOR_BYTES`).  It falls back
  to one full read when the file is missing, was replaced (a new
  inode), shrank below the offset, or no longer holds the remembered
  bytes.  An unterminated tail is classified like any line but not
  consumed: the next reload reads it again, and it is counted once.

Lines are split on ``\n`` and decoded one at a time, so a line that is
not UTF-8 is one corrupt line, never an unreadable file.
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


#: minimum bytes before a resume point :meth:`AppendLog.reload` checks
#: (the whole last complete line is always checked)
ANCHOR_BYTES = 64


def _classify_line(line: bytes, revive: Callable[[object], T | None],
                  schema: int) -> tuple[str, object]:
    """What one line of a log is, as ``(kind, value)``: ``("record",
    record)`` when ``revive`` turns it into one, ``("foreign",
    declared_schema)``, ``("corrupt", None)`` (not UTF-8, not JSON, or
    not a record) or ``("blank", None)``."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return "corrupt", None
    if not text.strip():
        return "blank", None
    try:
        data = json.loads(text)
    except ValueError:
        return "corrupt", None
    record = revive(data)
    if record is not None:
        return "record", record
    declared = data.get("schema") if isinstance(data, dict) else None
    if isinstance(declared, int) and not isinstance(declared, bool) \
            and declared != schema:
        return "foreign", declared
    return "corrupt", None


def scan_lines(path: Path, revive: Callable[[object], T | None],
               key: Callable[[T], str], schema: int,
               only: Container[str] | None = None) -> Scan[T]:
    """Classify every line of ``path`` and keep the last record per
    ``key``.  ``revive`` turns a parsed line into a record (None when
    it is not one) and ``schema`` is the log's current schema.  With
    ``only``, records under other keys are counted as ignored."""
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return Scan(exists=False, records={}, total=0, valid=0,
                    corrupt=0, foreign=0, schemas={}, ignored=0)
    records: dict[str, T] = {}
    total = valid = corrupt = ignored = 0
    schemas: dict[int, int] = {}
    for line in data.split(b"\n"):
        kind, value = _classify_line(line, revive, schema)
        if kind == "blank":
            continue
        total += 1
        if kind == "corrupt":
            corrupt += 1
        elif kind == "foreign":
            schemas[value] = schemas.get(value, 0) + 1
        else:
            record_key = key(value)
            if only is not None and record_key not in only:
                ignored += 1
            else:
                valid += 1
                records[record_key] = value
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


def _identity(handle) -> tuple[int, int]:
    """``(st_dev, st_ino)`` of an open file: what tells an in-place
    change from a replaced file."""
    stat = os.fstat(handle.fileno())
    return stat.st_dev, stat.st_ino


def atomic_rewrite(path: Path, data: bytes) -> tuple[int, int]:
    """Replace ``path`` with ``data`` through a sibling temp file,
    ``fsync`` and :func:`os.replace`; returns the new file's
    ``(st_dev, st_ino)``."""
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
            tmp.flush()
            os.fsync(tmp.fileno())
            identity = _identity(tmp)
        os.replace(tmp_name, path)
        return identity
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _resume_point(identity: tuple[int, int], base: int,
                  data: bytes) -> tuple[tuple[int, int], int, bytes]:
    """Where a reload of the file whose bytes from offset ``base`` on
    are ``data`` resumes: past the last complete line, checking the
    bytes before it (that whole line, and at least
    :data:`ANCHOR_BYTES` where ``data`` has them)."""
    end = data.rfind(b"\n") + 1
    line_start = data.rfind(b"\n", 0, max(end - 1, 0)) + 1
    anchor = data[min(line_start, max(end - ANCHOR_BYTES, 0)):end]
    return identity, base + end, anchor


class AppendLog(Generic[T]):
    """A keyed log held in memory: every write goes through to disk
    first, the last record per key wins, and one lock guards both.

    Thread-safe in-process; across processes it relies on whole-line
    appends and on loads tolerating a torn tail.  Subclasses declare
    the class attributes below.

    Memory is the file's complete lines up to the resume point plus a
    provisional layer: this instance's own appends and the file's
    unterminated tail.  Every :meth:`reload` undoes the provisional
    layer and re-reads the file from the resume point, so the file
    alone decides which line wins, whoever wrote it.
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
        """Read the whole file once and take the resume point from the
        same bytes (caller holds the lock, or is ``__init__``)."""
        self._records: dict[str, T] = {}
        #: key -> its record before the provisional layer (None: absent)
        self._provisional: dict[str, T | None] = {}
        #: corrupt or foreign complete lines before the resume point
        self._committed_skipped = 0
        #: (file identity, offset past the last complete line, the
        #: bytes before that offset); None while the file is missing
        self._resume: tuple[tuple[int, int], int, bytes] | None = None
        #: corrupt or foreign lines in the file as last read
        self.skipped_lines = 0
        try:
            with open(self.path, "rb") as handle:
                identity = _identity(handle)
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return
        self._consume(identity, 0, data, 0)

    def reload(self) -> None:
        """Pick up lines other processes appended, parsing only the
        bytes past the resume point.  A missing, replaced (new inode)
        or shrunk file, or one whose bytes before the resume point
        changed, is read in full instead.  Afterwards memory holds
        exactly what a fresh instance loading the file would."""
        with self._lock:
            if not self._reload_tail():
                self._load()

    def _reload_tail(self) -> bool:
        """Re-read from the resume point; False when only a full read
        can tell what the file holds (caller holds the lock)."""
        if self._resume is None:
            return False
        identity, offset, anchor = self._resume
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if (stat.st_dev, stat.st_ino) != identity \
                        or stat.st_size < offset:
                    return False
                base = offset - len(anchor)
                handle.seek(base)
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return False
        if not data.startswith(anchor):
            return False
        for key, previous in self._provisional.items():
            if previous is None:
                del self._records[key]
            else:
                self._records[key] = previous
        self._provisional = {}
        self._consume(identity, base, data, len(anchor))
        return True

    def _consume(self, identity: tuple[int, int], base: int, data: bytes,
                 start: int) -> None:
        """Apply the lines of ``data[start:]``, the file's bytes from
        offset ``base`` on: complete lines are committed and move the
        resume point past them; an unterminated tail is applied
        provisionally and read again by the next reload."""
        revive, schema = self.record_type.from_dict, self.record_type.schema
        *lines, tail = data[start:].split(b"\n")
        for line in lines:
            kind, value = _classify_line(line, revive, schema)
            if kind == "record":
                self._records[self.key(value)] = value
            elif kind != "blank":
                self._committed_skipped += 1
        kind, value = _classify_line(tail, revive, schema)
        if kind == "record":
            self._remember(value)
        self.skipped_lines = self._committed_skipped \
            + (kind in ("corrupt", "foreign"))
        self._resume = _resume_point(identity, base, data)

    def _remember(self, record: T) -> None:
        """Put ``record`` in the provisional layer (caller holds the
        lock)."""
        key = self.key(record)
        self._provisional.setdefault(key, self._records.get(key))
        self._records[key] = record

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
        lookups until a reload finds a later line for its key."""
        with self._lock:
            self._remember(record)
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
        """Adopt ``records``, atomically rewrite the file with them and
        resume from the end of what was written (caller holds the
        lock)."""
        data = "".join(
            record.to_json() + "\n"
            for record in sorted(records.values(), key=self.order)
        ).encode("utf-8")
        identity = atomic_rewrite(self.path, data)
        self._records = records
        self._provisional = {}
        self._committed_skipped = self.skipped_lines = 0
        self._resume = _resume_point(identity, 0, data)
