"""Journal diagnostics without running a daemon.

The request-journal counterpart of :mod:`repro.farm.doctor`: a read-only
pass over ``journal.jsonl`` reporting live/terminal request counts,
corrupt or foreign-schema lines, and — the operationally interesting
part — **stuck-running detection**: a ``running`` record whose
``updated_at`` is older than the staleness window means a daemon died
without checkpointing (graceful shutdowns journal ``running ->
admitted``); the next daemon start will resume it, but until then the
request is owned by nobody.  ``eric doctor --journal DIR`` is the CLI
wrapper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.daemon.journal import (LIVE_STATES, TERMINAL_STATES,
                                          JournalStore)

#: A ``running`` record untouched for this long is presumed orphaned
#: (checkpoints and terminal transitions all bump ``updated_at``).
DEFAULT_STALE_AFTER_S = 600.0


@dataclass(frozen=True)
class StuckRequest:
    """One running record no live daemon seems to own."""

    request_id: str
    fleet_name: str
    age_s: float


@dataclass(frozen=True)
class JournalDiagnosis:
    """Everything ``eric doctor --journal`` reports."""

    path: str
    exists: bool
    #: non-blank lines in the JSONL
    total_lines: int
    #: latest-state request count per state (live + terminal)
    state_counts: dict[str, int]
    #: valid lines shadowed by a later line for the same request
    superseded: int
    #: lines that are not valid JSON / not valid records
    corrupt: int
    #: valid records written under a different JOURNAL_SCHEMA
    foreign_schema: int
    stuck: tuple[StuckRequest, ...]
    stale_after_s: float

    @property
    def live_requests(self) -> int:
        return sum(self.state_counts.get(s, 0) for s in LIVE_STATES)

    @property
    def terminal_requests(self) -> int:
        return sum(self.state_counts.get(s, 0)
                   for s in TERMINAL_STATES)

    @property
    def healthy(self) -> bool:
        """Nothing needs operator attention: no corrupt lines, no
        foreign-schema records, no stuck-running requests.  Live
        requests and superseded state lines are informational — the
        normal shape of a journal a daemon is working through."""
        return (not self.corrupt and not self.foreign_schema
                and not self.stuck)

    def describe(self) -> str:
        lines = [f"journal: {self.path}"]
        if not self.exists:
            lines.append("  no journal.jsonl — nothing submitted yet")
        else:
            lines.append(
                f"  {self.total_lines} line(s): {self.live_requests} "
                f"live / {self.terminal_requests} terminal "
                f"request(s), {self.superseded} superseded, "
                f"{self.corrupt} corrupt, {self.foreign_schema} "
                f"foreign-schema")
            counted = ", ".join(
                f"{self.state_counts[state]} {state}"
                for state in LIVE_STATES + TERMINAL_STATES
                if self.state_counts.get(state))
            if counted:
                lines.append(f"  states: {counted}")
        for stuck in self.stuck:
            lines.append(
                f"  STUCK: request {stuck.request_id} "
                f"({stuck.fleet_name}) running but untouched for "
                f"{stuck.age_s:.0f}s (> {self.stale_after_s:.0f}s); "
                f"restart the daemon to resume it")
        if self.superseded:
            lines.append("  hint: superseded state lines are normal; "
                         "journal compaction drops them")
        if self.corrupt or self.foreign_schema:
            lines.append("  hint: corrupt/foreign lines are skipped "
                         "at load and dropped by compaction")
        lines.append("  verdict: " + ("healthy" if self.healthy
                                      else "NEEDS ATTENTION"))
        return "\n".join(lines)


def diagnose_journal(root: str | Path, *,
                     stale_after_s: float = DEFAULT_STALE_AFTER_S,
                     now: float | None = None) -> JournalDiagnosis:
    """Inspect a journal directory without touching it.

    ``now`` pins the staleness clock (tests); defaults to wall time.
    """
    path = Path(root) / JournalStore.filename
    found = JournalStore.scan(path)
    latest = found.records
    state_counts: dict[str, int] = {}
    for record in latest.values():
        state_counts[record.state] = \
            state_counts.get(record.state, 0) + 1
    clock = time.time() if now is None else now
    stuck = tuple(
        StuckRequest(request_id=record.request_id,
                     fleet_name=record.fleet_name,
                     age_s=max(clock - record.updated_at, 0.0))
        for record in sorted(latest.values(),
                             key=lambda r: r.request_id)
        if record.state == "running"
        and clock - record.updated_at > stale_after_s)
    return JournalDiagnosis(
        path=str(path), exists=found.exists, total_lines=found.total,
        state_counts=state_counts, superseded=found.superseded,
        corrupt=found.corrupt, foreign_schema=found.foreign, stuck=stuck,
        stale_after_s=stale_after_s)
