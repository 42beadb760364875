"""Distributed tracing for the serve stack.

A *trace* is one request's trip through every layer — daemon request →
scheduler fleet → farm batch/sweep → job — stitched together by span
IDs and parent links.  Spans cross process boundaries as small wire
dicts (:meth:`TraceContext.to_wire`): the farm puts one into each
``ProcessPoolExecutor`` job payload, and a sharded farm writes one
into every ``shard.json``, so a worker subprocess (or a remote ``eric
worker``) parents its spans under the dispatching run.

The tracer is also the stack's one event channel.  Sinks registered
with :meth:`Tracer.add_sink` receive every finished span and every
:meth:`Tracer.event` — a stage observed without a span of its own —
as a :class:`SpanRecord`.  Spans persist when the tracer is
file-backed; events only ever reach sinks.

Persistence follows the append-only log discipline of
:mod:`repro.jsonlog`, keyed by span ID.  Every span is written twice —
once at start (``end_s`` null) and once at finish — so a crash leaves
*unfinished* spans behind as forensic evidence ``eric doctor --trace``
can report.  Merging shard trace files is plain line concatenation
(:func:`merge_trace_files`), the same property the store's
``merge_from`` exploits.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from repro.jsonlog import append_lines, scan_lines
from repro.obs.metrics import METRICS, format_duration

TRACE_FILENAME = "trace.jsonl"
TRACE_SCHEMA = 1


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) coordinates a child span parents under —
    the only thing that crosses a process boundary."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data) -> "TraceContext | None":
        """Revive a wire dict; None for anything malformed (a shard
        spec hand-edited without trace context must not fail)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not (isinstance(trace_id, str) and trace_id
                and isinstance(span_id, str) and span_id):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One live (in-progress) span; created by :meth:`Tracer.start`."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "start_s", "end_s", "ok", "detail", "attrs")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: str | None,
                 attrs: dict | None) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = time.time()
        self.end_s: float | None = None
        self.ok = True
        self.detail = ""
        self.attrs: dict = dict(attrs) if attrs else {}

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "ok": self.ok,
            "detail": self.detail,
            "attrs": self.attrs,
        }

    def finish(self, ok: bool = True, detail: str = "") -> None:
        """Close the span, persist its final record and hand it to the
        sinks (idempotent — a second finish is a no-op, not a duplicate
        line)."""
        if self.end_s is not None:
            return
        self.end_s = time.time()
        self.ok = ok
        if detail:
            self.detail = detail
        self._tracer._record(self)


class Tracer:
    """Creates spans and delivers them, with events, to sinks.

    ``root`` makes the tracer file-backed: spans persist to
    ``<root>/trace.jsonl``.  ``root=None`` keeps nothing — the default
    for every layer of the stack, which always holds a tracer and
    emits only through it.  File appends are whole lines under a lock,
    so concurrent threads *and* processes interleave whole lines.

    A sink is any callable taking a :class:`SpanRecord`.  A sink that
    raises is isolated and counted on the process-wide
    ``telemetry.sink_errors`` metric; sinks may be added while others
    are being called (each record reaches the sinks present when it
    was delivered).
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.path: Path | None = None
        if root is not None:
            root = Path(root)
            root.mkdir(parents=True, exist_ok=True)
            self.path = root / TRACE_FILENAME
        self._lock = threading.Lock()
        self._sinks: tuple = ()

    def add_sink(self, sink) -> None:
        """Deliver every later finished span and event to ``sink``."""
        with self._lock:
            self._sinks += (sink,)

    def event(self, name: str, seconds: float = 0.0, *, ok: bool = True,
              detail: str = "", attrs: dict | None = None) -> None:
        """Hand a stage that has no span of its own to the sinks: a
        record ending now and lasting ``seconds``, with no trace
        coordinates.  Events are never persisted."""
        sinks = self._sinks
        if not sinks:
            return
        end_s = time.time()
        _deliver(sinks, SpanRecord(
            trace_id="", span_id="", parent_id=None, name=name,
            start_s=end_s - seconds, end_s=end_s, ok=ok, detail=detail,
            attrs=attrs or {}))

    def start(self, name: str,
              parent: "TraceContext | Span | None" = None,
              attrs: dict | None = None) -> Span:
        """Open a span; a None parent starts a new trace (root span).
        The start record is written immediately so a crash mid-span
        still leaves evidence on disk."""
        if isinstance(parent, Span):
            parent = parent.context
        trace_id = parent.trace_id if parent else uuid.uuid4().hex
        span = Span(self, name, trace_id=trace_id,
                    span_id=uuid.uuid4().hex[:16],
                    parent_id=parent.span_id if parent else None,
                    attrs=attrs)
        if self.path is not None:
            self._write(span.to_dict())
        return span

    @contextmanager
    def span(self, name: str,
             parent: "TraceContext | Span | None" = None,
             attrs: dict | None = None):
        """Context-managed span: finishes ok on exit, failed (with the
        exception as detail) when the body raises."""
        span = self.start(name, parent=parent, attrs=attrs)
        try:
            yield span
        except BaseException as exc:
            span.finish(ok=False,
                        detail=f"{type(exc).__name__}: {exc}")
            raise
        else:
            span.finish()

    # -- persistence and delivery ------------------------------------------

    def _record(self, span: Span) -> None:
        if self.path is not None:
            self._write(span.to_dict())
        sinks = self._sinks
        if sinks:
            _deliver(sinks, SpanRecord(
                trace_id=span.trace_id, span_id=span.span_id,
                parent_id=span.parent_id, name=span.name,
                start_s=span.start_s, end_s=span.end_s, ok=span.ok,
                detail=span.detail, attrs=span.attrs))

    def _write(self, data: dict) -> None:
        line = _span_line(data)
        with self._lock:
            append_lines(self.path, line)


def _deliver(sinks: tuple, record: "SpanRecord") -> None:
    for sink in sinks:
        try:
            sink(record)
        except Exception:
            # observability must never take down the stack — but a
            # broken sink must not fail silently either
            METRICS.inc("telemetry.sink_errors")


def _span_line(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# reading, reconstruction, rendering


@dataclass(frozen=True)
class SpanRecord:
    """One span as read back from ``trace.jsonl`` (last record wins),
    and what sinks receive for each finished span and each event (an
    event's IDs are empty)."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_s: float
    end_s: float | None
    ok: bool
    detail: str
    attrs: dict

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.finished else 0.0

    @classmethod
    def from_dict(cls, data) -> "SpanRecord | None":
        """Revive one parsed line; None for corrupt or
        schema-mismatched records (callers skip and count them)."""
        if not isinstance(data, dict) or data.get("schema") != TRACE_SCHEMA:
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        name = data.get("name")
        start_s = data.get("start_s")
        if not (isinstance(trace_id, str) and isinstance(span_id, str)
                and isinstance(name, str)
                and isinstance(start_s, (int, float))):
            return None
        parent_id = data.get("parent_id")
        if parent_id is not None and not isinstance(parent_id, str):
            return None
        end_s = data.get("end_s")
        if end_s is not None and not isinstance(end_s, (int, float)):
            return None
        attrs = data.get("attrs")
        return cls(trace_id=trace_id, span_id=span_id,
                   parent_id=parent_id, name=name, start_s=start_s,
                   end_s=end_s, ok=bool(data.get("ok", True)),
                   detail=str(data.get("detail", "")),
                   attrs=attrs if isinstance(attrs, dict) else {})


def read_trace(path: str | Path) -> tuple[dict[str, SpanRecord], int]:
    """Load a trace file: last record per span ID wins; corrupt or
    torn lines are counted, never fatal.  Returns ``(spans_by_id,
    skipped_lines)``; a missing file reads as empty."""
    path = Path(path)
    if path.is_dir():
        path = path / TRACE_FILENAME
    found = scan_lines(path, SpanRecord.from_dict, attrgetter("span_id"),
                       TRACE_SCHEMA)
    return found.records, found.skipped


def merge_trace_files(dest: str | Path,
                      sources: Iterable[str | Path]) -> int:
    """Append every valid span line of ``sources`` onto ``dest`` —
    concatenation *is* the merge, exactly as for store JSONL (last
    record per span ID wins at read time).  Returns lines appended;
    corrupt source lines are silently left behind."""
    dest = Path(dest)
    if dest.is_dir():
        dest = dest / TRACE_FILENAME
    lines = [_span_line({"schema": TRACE_SCHEMA, **record.__dict__})
             for source in sources
             for record in read_trace(source)[0].values()]
    dest.parent.mkdir(parents=True, exist_ok=True)
    append_lines(dest, "".join(lines))
    return len(lines)


@dataclass(frozen=True)
class TraceTree:
    """All spans of one trace ID, reconstructed into a tree."""

    trace_id: str
    spans: tuple[SpanRecord, ...]

    def by_id(self) -> dict[str, SpanRecord]:
        return {span.span_id: span for span in self.spans}

    @property
    def roots(self) -> tuple[SpanRecord, ...]:
        return tuple(sorted((s for s in self.spans
                             if s.parent_id is None),
                            key=lambda s: s.start_s))

    @property
    def orphans(self) -> tuple[SpanRecord, ...]:
        """Spans whose parent is named but missing — the signature of
        a lost process boundary (or an unmerged shard trace file)."""
        known = self.by_id()
        return tuple(s for s in self.spans
                     if s.parent_id is not None
                     and s.parent_id not in known)

    @property
    def connected(self) -> bool:
        """One root, and every other span reachable from it."""
        return len(self.roots) == 1 and not self.orphans

    def children(self, span_id: str) -> tuple[SpanRecord, ...]:
        return tuple(sorted((s for s in self.spans
                             if s.parent_id == span_id),
                            key=lambda s: s.start_s))

    @property
    def start_s(self) -> float:
        return min(s.start_s for s in self.spans)

    @property
    def end_s(self) -> float:
        return max((s.end_s if s.end_s is not None else s.start_s)
                   for s in self.spans)

    def critical_path(self) -> tuple[SpanRecord, ...]:
        """Root-to-leaf chain that determined the trace's wall clock:
        from each span, descend into the child that finished last."""
        roots = self.roots
        if not roots:
            return ()
        path = [max(roots, key=lambda s: s.end_s or s.start_s)]
        while True:
            children = self.children(path[-1].span_id)
            if not children:
                return tuple(path)
            path.append(max(children,
                            key=lambda s: s.end_s or s.start_s))

    def render(self) -> str:
        """Waterfall: depth-indented spans with offsets from the trace
        start, plus the critical path."""
        origin = self.start_s
        lines = [f"trace {self.trace_id[:16]}: {len(self.spans)} "
                 f"span(s), {format_duration(self.end_s - origin)}"]

        def emit(span: SpanRecord, depth: int) -> None:
            offset = f"+{format_duration(span.start_s - origin)}"
            duration = (format_duration(span.duration_s)
                        if span.finished else "UNFINISHED")
            flag = "" if span.ok else " [FAILED]"
            subject = f" {span.attrs['program']}" \
                if "program" in span.attrs else ""
            lines.append(f"  {offset:>12}  {'  ' * depth}"
                         f"{span.name}{subject}  ({duration}){flag}")
            for child in self.children(span.span_id):
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        for orphan in self.orphans:
            lines.append(f"  {'(orphan)':>12}  {orphan.name}  "
                         f"(parent {orphan.parent_id[:8]} missing)")
        path = self.critical_path()
        if path:
            chain = " -> ".join(span.name for span in path)
            lines.append(f"  critical path: {chain} "
                         f"({format_duration(self.end_s - origin)})")
        return "\n".join(lines)


def build_trees(spans: Iterable[SpanRecord]) -> tuple[TraceTree, ...]:
    """Group spans by trace ID; trees sorted by their earliest start."""
    grouped: dict[str, list[SpanRecord]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    trees = [TraceTree(trace_id=trace_id, spans=tuple(group))
             for trace_id, group in grouped.items()]
    return tuple(sorted(trees, key=lambda t: t.start_s))


def render_traces(path: str | Path,
                  trace_id: str | None = None) -> str:
    """The ``eric trace DIR`` report: every trace's waterfall (or just
    ``trace_id``'s, prefix-matched), newest last."""
    spans, skipped = read_trace(path)
    trees = build_trees(spans.values())
    if trace_id is not None:
        trees = tuple(t for t in trees
                      if t.trace_id.startswith(trace_id))
    if not trees:
        return ("no matching trace found"
                if trace_id is not None else "no traces recorded")
    blocks = [tree.render() for tree in trees]
    if skipped:
        blocks.append(f"({skipped} corrupt line(s) skipped)")
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# doctor


@dataclass(frozen=True)
class TraceDiagnosis:
    """Crash forensics over a trace directory (and its metrics file).

    Unfinished root spans are requests that never completed — a daemon
    killed mid-serve; dangling parents mean a process boundary lost
    its context (or a shard trace file was never merged back).
    """

    path: str
    exists: bool
    spans: int
    traces: int
    skipped_lines: int
    orphan_spans: int
    unfinished_spans: int
    unfinished_roots: int
    #: None: no metrics.json next to the trace file; True/False: it
    #: parsed / was corrupt
    metrics_ok: bool | None
    metrics_error: str = ""

    @property
    def healthy(self) -> bool:
        return (self.orphan_spans == 0 and self.unfinished_roots == 0
                and self.metrics_ok is not False)

    def describe(self) -> str:
        lines = [f"trace: {self.path}"]
        if not self.exists:
            lines.append("  no trace file (nothing recorded)")
        else:
            lines.append(f"  {self.spans} span(s) across "
                         f"{self.traces} trace(s)")
            if self.skipped_lines:
                lines.append(f"  {self.skipped_lines} corrupt "
                             f"line(s) skipped (torn tail tolerated)")
            if self.orphan_spans:
                lines.append(f"  {self.orphan_spans} orphan span(s) "
                             f"with a missing parent — was a shard "
                             f"trace file merged back?")
            if self.unfinished_roots:
                lines.append(f"  {self.unfinished_roots} unfinished "
                             f"root span(s) — a request died "
                             f"mid-serve")
            elif self.unfinished_spans:
                lines.append(f"  {self.unfinished_spans} unfinished "
                             f"non-root span(s)")
        if self.metrics_ok is True:
            lines.append("  metrics.json: ok")
        elif self.metrics_ok is False:
            lines.append(f"  metrics.json: CORRUPT "
                         f"({self.metrics_error})")
        lines.append("  verdict: healthy" if self.healthy
                     else "  verdict: NEEDS ATTENTION")
        return "\n".join(lines)


def diagnose_trace(root: str | Path) -> TraceDiagnosis:
    """Inspect ``<root>/trace.jsonl`` (and ``metrics.json`` when
    present) without mutating anything."""
    from repro.obs.metrics import METRICS_FILENAME, load_metrics

    root = Path(root)
    path = root / TRACE_FILENAME if root.is_dir() or not root.exists() \
        else root
    spans, skipped = read_trace(path)
    trees = build_trees(spans.values())
    orphans = sum(len(t.orphans) for t in trees)
    unfinished = sum(1 for s in spans.values() if not s.finished)
    unfinished_roots = sum(
        1 for t in trees for s in t.roots if not s.finished)
    metrics_ok: bool | None = None
    metrics_error = ""
    metrics_path = path.parent / METRICS_FILENAME
    if metrics_path.exists():
        try:
            load_metrics(metrics_path)
            metrics_ok = True
        except ValueError as exc:
            metrics_ok = False
            metrics_error = str(exc)
    return TraceDiagnosis(
        path=str(path), exists=path.exists(), spans=len(spans),
        traces=len(trees), skipped_lines=skipped, orphan_spans=orphans,
        unfinished_spans=unfinished, unfinished_roots=unfinished_roots,
        metrics_ok=metrics_ok, metrics_error=metrics_error)
