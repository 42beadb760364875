"""Tracing: spans, persistence discipline, tree reconstruction, doctor."""

import json

from repro.obs.sinks import RecordingTelemetry
from repro.obs.trace import (TRACE_FILENAME, TRACE_SCHEMA, TraceContext,
                             Tracer, build_trees, diagnose_trace,
                             merge_trace_files, read_trace, render_traces)


def read_lines(path):
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


class TestTracer:
    def test_span_written_at_start_and_again_at_finish(self, tmp_path):
        tracer = Tracer(tmp_path)
        span = tracer.start("daemon.request", attrs={"fleet": "edge"})
        lines = read_lines(tracer.path)
        assert len(lines) == 1 and lines[0]["end_s"] is None
        span.finish(detail="served")
        lines = read_lines(tracer.path)
        assert len(lines) == 2
        assert lines[1]["end_s"] is not None
        assert lines[1]["detail"] == "served"
        assert lines[1]["attrs"] == {"fleet": "edge"}

    def test_finish_is_idempotent(self, tmp_path):
        tracer = Tracer(tmp_path)
        span = tracer.start("x")
        span.finish()
        span.finish(ok=False, detail="ignored")
        assert len(read_lines(tracer.path)) == 2
        assert span.ok is True and span.detail == ""

    def test_child_inherits_trace_id_and_parent_link(self):
        tracer = Tracer()  # memory-only
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        grandchild = tracer.start("leaf", parent=child.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.parent_id is None
        for span in (grandchild, child, root):
            span.finish()

    def test_context_manager_marks_failure_with_exception_detail(self):
        tracer = Tracer()
        recorder = RecordingTelemetry()
        tracer.add_sink(recorder)
        try:
            with tracer.span("boom"):
                raise RuntimeError("pipeline meltdown")
        except RuntimeError:
            pass
        (record,) = recorder.snapshot()
        assert record.ok is False
        assert record.detail == "RuntimeError: pipeline meltdown"

    def test_events_reach_sinks_but_never_persist(self, tmp_path):
        tracer = Tracer(tmp_path)
        recorder = RecordingTelemetry()
        tracer.add_sink(recorder)
        tracer.event("compile", 0.25, detail="3b8214ca",
                     attrs={"program": "crc32"})
        with tracer.span("farm.sweep"):
            pass
        event, span = recorder.snapshot()
        assert (event.name, event.detail, event.attrs) \
            == ("compile", "3b8214ca", {"program": "crc32"})
        assert event.span_id == "" and event.parent_id is None
        assert abs(event.duration_s - 0.25) < 1e-3
        assert span.name == "farm.sweep" and span.span_id
        # the span was written at start and finish; the event never
        assert [line["name"] for line in read_lines(tracer.path)] \
            == ["farm.sweep", "farm.sweep"]

    def test_memory_tracer_writes_no_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("quiet"):
            pass
        assert tracer.path is None
        assert list(tmp_path.iterdir()) == []


class TestWire:
    def test_round_trip(self):
        ctx = TraceContext(trace_id="t" * 32, span_id="s" * 16)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_malformed_wire_is_none_not_an_error(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("junk") is None
        assert TraceContext.from_wire({"trace_id": "t"}) is None
        assert TraceContext.from_wire(
            {"trace_id": "", "span_id": "s"}) is None


class TestReadTrace:
    def test_last_record_per_span_wins(self, tmp_path):
        tracer = Tracer(tmp_path)
        span = tracer.start("job")
        span.finish()
        spans, skipped = read_trace(tmp_path)
        assert skipped == 0
        assert spans[span.span_id].finished

    def test_torn_tail_and_junk_lines_are_counted_not_fatal(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("ok"):
            pass
        with tracer.path.open("a") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"schema": 999}) + "\n")
            handle.write('{"schema": 1, "trace_id": "t", "spa')  # torn
        spans, skipped = read_trace(tmp_path)
        assert len(spans) == 1
        assert skipped == 3

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_trace(tmp_path) == ({}, 0)


class TestMerge:
    def test_concatenation_reconnects_shard_spans(self, tmp_path):
        parent_dir = tmp_path / "store"
        parent = Tracer(parent_dir)
        root = parent.start("farm.sweep")
        for name in ("s0", "s1"):
            shard = Tracer(tmp_path / name)
            with shard.span("worker.shard", parent=root.context):
                pass
        root.finish()
        appended = merge_trace_files(
            parent.path,
            [tmp_path / name / TRACE_FILENAME for name in ("s0", "s1")])
        assert appended == 2
        spans, _ = read_trace(parent_dir)
        (tree,) = build_trees(spans.values())
        assert tree.connected
        assert len(tree.spans) == 3

    def test_missing_source_is_harmless(self, tmp_path):
        dest = tmp_path / TRACE_FILENAME
        assert merge_trace_files(dest, [tmp_path / "ghost"]) == 0


class TestTraceTree:
    def build(self, tmp_path):
        tracer = Tracer(tmp_path)
        root = tracer.start("daemon.request")
        fast = tracer.start("farm.job", parent=root)
        fast.finish()
        slow = tracer.start("farm.sweep", parent=root)
        leaf = tracer.start("farm.job", parent=slow)
        leaf.end_s = leaf.start_s + 5.0
        tracer._record(leaf)
        slow.end_s = slow.start_s + 6.0
        tracer._record(slow)
        root.end_s = root.start_s + 7.0
        tracer._record(root)
        spans, _ = read_trace(tmp_path)
        (tree,) = build_trees(spans.values())
        return tree

    def test_connected_tree_and_critical_path(self, tmp_path):
        tree = self.build(tmp_path)
        assert tree.connected and not tree.orphans
        assert [s.name for s in tree.critical_path()] == \
            ["daemon.request", "farm.sweep", "farm.job"]

    def test_render_shows_waterfall_and_critical_path(self, tmp_path):
        text = self.build(tmp_path).render()
        assert "4 span(s)" in text
        assert "critical path: daemon.request -> farm.sweep -> farm.job" \
            in text

    def test_orphan_breaks_connectivity(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("root"):
            pass
        orphan = tracer.start(
            "lost", parent=TraceContext(trace_id="other", span_id="gone"))
        orphan.finish()
        trees = build_trees(read_trace(tmp_path)[0].values())
        lost = next(t for t in trees if t.trace_id == "other")
        assert not lost.connected
        assert lost.orphans[0].name == "lost"


class TestRenderTraces:
    def test_prefix_filter_and_empty_messages(self, tmp_path):
        assert render_traces(tmp_path) == "no traces recorded"
        tracer = Tracer(tmp_path)
        recorder = RecordingTelemetry()
        tracer.add_sink(recorder)
        with tracer.span("a"):
            pass
        trace_id = recorder.snapshot()[0].trace_id
        assert "a  (" in render_traces(tmp_path, trace_id=trace_id[:8])
        assert render_traces(tmp_path, trace_id="zzzz") == \
            "no matching trace found"


class TestDoctor:
    def test_healthy_trace(self, tmp_path):
        tracer = Tracer(tmp_path)
        root = tracer.start("daemon.request")
        with tracer.span("farm.job", parent=root):
            pass
        root.finish()
        diagnosis = diagnose_trace(tmp_path)
        assert diagnosis.healthy
        assert "verdict: healthy" in diagnosis.describe()

    def test_unfinished_root_is_unhealthy(self, tmp_path):
        tracer = Tracer(tmp_path)
        tracer.start("daemon.request")  # never finished: daemon killed
        diagnosis = diagnose_trace(tmp_path)
        assert not diagnosis.healthy
        assert diagnosis.unfinished_roots == 1
        assert "NEEDS ATTENTION" in diagnosis.describe()

    def test_dangling_parent_is_unhealthy(self, tmp_path):
        tracer = Tracer(tmp_path)
        span = tracer.start(
            "worker.shard",
            parent=TraceContext(trace_id="t", span_id="missing"))
        span.finish()
        diagnosis = diagnose_trace(tmp_path)
        assert not diagnosis.healthy
        assert diagnosis.orphan_spans == 1

    def test_corrupt_metrics_flips_verdict(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("root"):
            pass
        (tmp_path / "metrics.json").write_text("{broken")
        diagnosis = diagnose_trace(tmp_path)
        assert diagnosis.metrics_ok is False
        assert not diagnosis.healthy

    def test_empty_directory_is_healthy_nothing_recorded(self, tmp_path):
        diagnosis = diagnose_trace(tmp_path)
        assert diagnosis.healthy and not diagnosis.exists
        assert "nothing recorded" in diagnosis.describe()
