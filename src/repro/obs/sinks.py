"""Tracer sinks: callables that receive each finished span and event.

Register one with :meth:`repro.obs.trace.Tracer.add_sink`; it is then
called with a :class:`~repro.obs.trace.SpanRecord` for every span the
tracer finishes and every :meth:`~repro.obs.trace.Tracer.event` it
emits.  Any callable works — a logger, a metrics exporter — and two
come bundled: :class:`RecordingTelemetry` for tests and reports, and
:class:`StagePrinter` for the CLI's progress narration.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import format_duration
from repro.obs.trace import SpanRecord


class RecordingTelemetry:
    """A sink that keeps every record (tests, reports, debugging).

    Thread-safe: scheduler tasks, fleet worker threads, and farm
    callbacks all deliver concurrently, and ``list.append`` alone would
    let a reader iterate a list mid-growth.  Readers go through
    :meth:`snapshot`, which copies under the same lock.
    """

    def __init__(self) -> None:
        self.events: list[SpanRecord] = []
        self._lock = threading.Lock()

    def __call__(self, record: SpanRecord) -> None:
        with self._lock:
            self.events.append(record)

    def snapshot(self) -> tuple[SpanRecord, ...]:
        """A consistent copy of everything recorded so far."""
        with self._lock:
            return tuple(self.events)

    def stages(self, name: str) -> list[SpanRecord]:
        return [r for r in self.snapshot() if r.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(r.duration_s for r in self.stages(name))


@dataclass
class StagePrinter:
    """A sink that renders records as one-line progress messages.

    ``  [stage] subject: detail (duration)``, where the subject is the
    record's ``program`` or ``fleet`` attribute.  ``stages`` limits
    output to a stage prefix (e.g. ``"farm."``).  Durations render
    adaptively — milliseconds under 10 s, whole seconds above — so
    hour-long sweep lines stay readable.

    Line-atomic under concurrency: records arrive from scheduler tasks,
    fleet worker threads, and farm callbacks at once, so each one is
    rendered to one string and written with a single locked ``write``
    call — interleaved half-lines would corrupt the narration (and any
    log a CI run greps).
    """

    stream: object = None  # default: sys.stdout at call time
    stages: str = ""
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def __call__(self, record: SpanRecord) -> None:
        if self.stages and not record.name.startswith(self.stages):
            return
        stream = self.stream if self.stream is not None else sys.stdout
        name = record.attrs.get("program") or record.attrs.get("fleet")
        subject = f" {name}" if name else ""
        detail = f": {record.detail}" if record.detail else ""
        flag = "" if record.ok else " [FAILED]"
        line = (f"  [{record.name}]{subject}{detail} "
                f"({format_duration(record.duration_s)}){flag}\n")
        with self._lock:
            stream.write(line)
