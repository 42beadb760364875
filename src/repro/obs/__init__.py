"""repro.obs — observability: tracing, metrics, simulator profiling.

Three cooperating layers:

* :mod:`repro.obs.trace` — ``Span``/``Tracer`` with trace/span IDs and
  parent links, propagated across every boundary of a serve (daemon
  request → scheduler fleet → farm batch → job), *including* process
  boundaries: trace context rides into ``ProcessPoolExecutor`` job
  payloads and ``shard.json`` worker specs.  The tracer is the stack's
  one event channel: every layer holds one and hands each finished
  span and each event to its sinks (:mod:`repro.obs.sinks` —
  ``StagePrinter`` narration, ``RecordingTelemetry``).  Spans persist
  as append-only ``trace.jsonl`` under the :mod:`repro.jsonlog`
  discipline shared with the result store when the tracer is
  file-backed; events never persist.  ``eric trace DIR`` renders
  per-request waterfalls and critical paths.

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, histograms with p50/p95/p99) fed by the existing
  emit sites: scheduler coalesces, admission defer/reject, store hits
  vs simulations, journal states.  ``eric
  metrics DIR`` renders a Prometheus-style text snapshot; the daemon
  poll loop dumps one periodically.

* simulator profiling — cheap counters threaded through the SoC run
  loop and :class:`~repro.farm.store.FarmRecord` (instructions retired,
  simulated cycles, wall seconds, derived sim-cycles/sec and cache hit
  rates per job), surfaced in ``FarmReport`` tables and committed as
  ``BENCH_interp.json`` so interpreter rework has a baseline.
"""

from repro.obs.metrics import (METRICS, METRICS_FILENAME, MetricsRegistry,
                               format_duration, load_metrics,
                               render_snapshot)
from repro.obs.sinks import RecordingTelemetry, StagePrinter
from repro.obs.trace import (TRACE_FILENAME, TRACE_SCHEMA, Span,
                             SpanRecord, TraceContext, TraceDiagnosis,
                             Tracer, TraceTree, build_trees,
                             diagnose_trace, merge_trace_files,
                             read_trace, render_traces)

__all__ = [
    "METRICS",
    "METRICS_FILENAME",
    "MetricsRegistry",
    "RecordingTelemetry",
    "Span",
    "SpanRecord",
    "StagePrinter",
    "TRACE_FILENAME",
    "TRACE_SCHEMA",
    "TraceContext",
    "TraceDiagnosis",
    "TraceTree",
    "Tracer",
    "build_trees",
    "diagnose_trace",
    "format_duration",
    "load_metrics",
    "merge_trace_files",
    "read_trace",
    "render_snapshot",
    "render_traces",
]
