"""The durable fleet-request journal.

Every request the serve daemon accepts is an append-only JSONL record
under a journal directory — one line per state change, keyed by
``request_id``, under the same :mod:`repro.jsonlog` discipline as the
farm's result store, applied to *requests* instead of measurements: a
state transition simply appends the updated record and wins, and lines
of another :data:`JOURNAL_SCHEMA` are skipped.

The append-only layout is what makes the daemon durable: submitters
(``eric submit``) and the daemon append to the same file from different
processes, a crash mid-serve loses at most one torn line, and replaying
the file after a restart reconstructs every request's latest state.

Request lifecycle::

    submitted --> admitted --> running --> done | failed
        |             ^            |
        |             +------------+   (shutdown checkpoint)
        +--> cancelled (admission reject / operator)

``running -> admitted`` is the graceful-shutdown checkpoint: the daemon
re-journals in-flight requests as admitted-but-not-running so the next
daemon resumes them; a hard crash leaves them ``running`` and the
replay resumes those too.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter

from repro.errors import ConfigError, EricError
from repro.jsonlog import AppendLog

#: Journal record layout version; lines under any other version are
#: skipped at load (they no longer describe what the daemon serves).
JOURNAL_SCHEMA = 1

#: States a request moves through, in lifecycle order.
LIVE_STATES = ("submitted", "admitted", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")
STATES = LIVE_STATES + TERMINAL_STATES

#: Legal state transitions (see module docstring for the diagram).
_TRANSITIONS = {
    "submitted": {"admitted", "cancelled"},
    "admitted": {"running", "cancelled"},
    "running": {"admitted", "running", "done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}


def new_request_id() -> str:
    """A fresh journal request id (random, submitter-side unique)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class JournalRecord:
    """One request's latest journaled state.

    ``fleet`` is the raw ``eric serve`` fleet entry (``{"name": ...}``
    plus sweep-matrix keys) — stored as submitted, parsed into a
    :class:`~repro.service.scheduler.FleetRequest` only when the daemon
    serves it, so the journal never depends on spec-expansion code
    staying frozen.
    """

    request_id: str
    fleet: dict
    tenant: str = "default"
    #: higher dispatches first; ties break on submission time then id
    priority: int = 0
    state: str = "submitted"
    submitted_at: float = 0.0
    updated_at: float = 0.0
    #: times a daemon started running this request (resume counting)
    attempts: int = 0
    #: jobs measured by the current attempt's last checkpoint
    done_jobs: int = 0
    #: fully-expanded job count (recorded at submit time)
    total_jobs: int = 0
    error: str | None = None
    #: outcome summary on ``done``/``failed`` (jobs/hits/failures/wall)
    result: dict | None = None
    schema: int = JOURNAL_SCHEMA

    @property
    def fleet_name(self) -> str:
        name = self.fleet.get("name") if isinstance(self.fleet, dict) \
            else None
        return name if isinstance(name, str) and name else "?"

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def validate(self) -> "JournalRecord":
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ConfigError(
                f"request_id must be a non-empty string, "
                f"got {self.request_id!r}")
        if not isinstance(self.fleet, dict) or "name" not in self.fleet:
            raise ConfigError(
                f"request {self.request_id}: fleet must be an object "
                f'with a "name" (the eric serve fleet dialect)')
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ConfigError(
                f"request {self.request_id}: tenant must be a "
                f"non-empty string, got {self.tenant!r}")
        if not isinstance(self.priority, int) \
                or isinstance(self.priority, bool):
            raise ConfigError(
                f"request {self.request_id}: priority must be an "
                f"integer, got {self.priority!r}")
        if self.state not in STATES:
            raise ConfigError(
                f"request {self.request_id}: unknown state "
                f"{self.state!r}; expected one of {sorted(STATES)}")
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "JournalRecord | None":
        """Parse one journal line; None for corrupt or
        schema-mismatched records (the caller skips them)."""
        try:
            data = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "JournalRecord | None":
        if not isinstance(data, dict) \
                or data.get("schema") != JOURNAL_SCHEMA:
            return None
        names = {f.name for f in fields(cls)}
        try:
            record = cls(**{k: v for k, v in data.items() if k in names})
            record.validate()
        except (TypeError, ConfigError):
            return None
        return record


class JournalStore(AppendLog[JournalRecord]):
    """Keyed JSONL persistence of request records, last-line-wins.
    Submitters and the daemon append to the same file from different
    processes; :meth:`reload` picks up the other side's lines."""

    filename = "journal.jsonl"
    record_type = JournalRecord
    key = attrgetter("request_id")
    order = attrgetter("submitted_at", "request_id")
    skipped_hint = "they are skipped at load and dropped by compaction"

    def records(self) -> tuple[JournalRecord, ...]:
        """Every request's latest record, oldest submission first."""
        with self._lock:
            records = list(self._records.values())
        return tuple(sorted(records, key=self.order))

    def by_state(self, *states: str) -> tuple[JournalRecord, ...]:
        for state in states:
            if state not in STATES:
                raise ConfigError(f"unknown journal state {state!r}")
        return tuple(r for r in self.records() if r.state in states)

    def live(self) -> tuple[JournalRecord, ...]:
        """Requests a daemon still owes work: submitted, admitted, or
        running (the replay set after a restart)."""
        return tuple(r for r in self.records() if r.live)

    def append(self, record: JournalRecord) -> JournalRecord:
        """Validate, remember, and append one record (write-through)."""
        record.validate()
        return self._append(record)

    def submit(self, fleet: dict, *, tenant: str = "default",
               priority: int = 0, total_jobs: int = 0,
               request_id: str | None = None) -> JournalRecord:
        """Journal a fresh request in state ``submitted``."""
        now = time.time()
        record = JournalRecord(
            request_id=request_id or new_request_id(), fleet=fleet,
            tenant=tenant, priority=priority, submitted_at=now,
            updated_at=now, total_jobs=total_jobs)
        if record.request_id in self:
            raise EricError(
                f"request {record.request_id} is already journaled")
        return self.append(record)

    def transition(self, request_id: str, state: str, *,
                   error: str | None = None, result: dict | None = None,
                   done_jobs: int | None = None,
                   attempts: int | None = None) -> JournalRecord:
        """Append the request's record under a new (legal) state."""
        record = self.get(request_id)
        if record is None:
            raise EricError(f"request {request_id} is not journaled")
        if state not in _TRANSITIONS.get(record.state, set()):
            raise EricError(
                f"request {request_id}: illegal transition "
                f"{record.state} -> {state}")
        updated = replace(
            record, state=state, updated_at=time.time(), error=error,
            result=result if result is not None else record.result,
            done_jobs=(done_jobs if done_jobs is not None
                       else record.done_jobs),
            attempts=(attempts if attempts is not None
                      else record.attempts))
        return self.append(updated)
