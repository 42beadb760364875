"""Tracer sinks: sink errors, snapshots, units."""

import io
import threading

from repro.obs.metrics import METRICS
from repro.obs.sinks import RecordingTelemetry, StagePrinter
from repro.obs.trace import SpanRecord, Tracer


def record(name: str, seconds: float = 0.0, detail: str = "",
           **attrs) -> SpanRecord:
    return SpanRecord(trace_id="", span_id="", parent_id=None, name=name,
                      start_s=100.0, end_s=100.0 + seconds, ok=True,
                      detail=detail, attrs=attrs)


class TestSinkErrors:
    def test_raising_sink_is_counted_and_isolated(self):
        tracer = Tracer()
        recorder = RecordingTelemetry()

        def broken(record):
            raise RuntimeError("sink on fire")

        tracer.add_sink(broken)
        tracer.add_sink(recorder)
        before = METRICS.counter("telemetry.sink_errors")
        for i in range(2):
            tracer.event("farm.job", detail=str(i))
        with tracer.span("farm.sweep"):
            pass
        # the healthy sink saw everything; the failures were counted
        assert [r.detail for r in recorder.snapshot()] == ["0", "1", ""]
        assert METRICS.counter("telemetry.sink_errors") - before == 3


class TestRecordingTelemetry:
    def test_snapshot_is_a_stable_copy(self):
        recorder = RecordingTelemetry()
        recorder(record("a"))
        snap = recorder.snapshot()
        recorder(record("b"))
        assert [r.name for r in snap] == ["a"]
        assert [r.name for r in recorder.snapshot()] == ["a", "b"]

    def test_concurrent_appends_drop_nothing(self):
        recorder = RecordingTelemetry()
        barrier = threading.Barrier(4)

        def pound(tid):
            barrier.wait()
            for i in range(500):
                recorder(record("t", detail=f"{tid}:{i}"))

        threads = [threading.Thread(target=pound, args=(tid,))
                   for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder.snapshot()) == 2000
        assert recorder.total_seconds("t") == 0.0

    def test_events_carry_optional_trace_coordinates(self):
        tracer = Tracer()
        recorder = RecordingTelemetry()
        tracer.add_sink(recorder)
        with tracer.span("farm.sweep", attrs={"jobs": 4}) as span:
            tracer.event("farm.job", attrs={"program": "crc32"})
        event, sweep = recorder.snapshot()
        # a finished span reaches sinks with its trace coordinates
        assert (sweep.trace_id, sweep.span_id) \
            == (span.trace_id, span.span_id)
        assert sweep.attrs == {"jobs": 4}
        # an event has none: it is not part of any persisted trace
        assert event.trace_id == event.span_id == ""
        assert event.attrs == {"program": "crc32"}


class TestStagePrinterUnits:
    def render(self, seconds):
        out = io.StringIO()
        StagePrinter(stream=out)(record("farm.sweep", seconds))
        return out.getvalue()

    def test_milliseconds_below_ten_seconds(self):
        assert "(1.5 ms)" in self.render(0.0015)
        assert "(9500.0 ms)" in self.render(9.5)

    def test_seconds_for_long_stages(self):
        assert "(90.0 s)" in self.render(90.0)
        assert "(3661.0 s)" in self.render(3661.0)

    def test_subject_is_the_program_or_the_fleet(self):
        out = io.StringIO()
        printer = StagePrinter(stream=out)
        printer(record("farm.job", detail="executed", program="crc32"))
        printer(record("scheduler.fleet", detail="0 failed",
                       fleet="alpha", jobs=2))
        printer(record("scheduler.serve", detail="1 fleet(s)"))
        assert out.getvalue().splitlines() == [
            "  [farm.job] crc32: executed (0.0 ms)",
            "  [scheduler.fleet] alpha: 0 failed (0.0 ms)",
            "  [scheduler.serve]: 1 fleet(s) (0.0 ms)",
        ]
