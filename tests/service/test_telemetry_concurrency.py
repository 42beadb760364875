"""Tracer sinks under concurrency: whole lines, no dropped events.

The async scheduler emits from event-loop tasks while farm worker
callbacks and fleet worker threads emit from executor threads — all
into the same tracer's sinks.  A :class:`StagePrinter` that interleaves
half-lines corrupts the narration (and anything CI greps out of it),
so line-atomicity is a regression contract.
"""

import io
import re
import sys
import threading

from repro.farm import ResultStore
from repro.obs.sinks import RecordingTelemetry, StagePrinter
from repro.obs.trace import Tracer
from repro.service.scheduler import FleetScheduler, load_fleet_specs

THREADS = 8
EVENTS_PER_THREAD = 50

#: what one intact StagePrinter line looks like for the events below
LINE = re.compile(r"^  \[farm\.job\] w(\d+): evt(\d+) \(1\.0 ms\)$")


def test_stage_printer_lines_stay_atomic_under_threads():
    out = io.StringIO()
    tracer = Tracer()
    tracer.add_sink(StagePrinter(stream=out))
    barrier = threading.Barrier(THREADS)

    def worker(tid: int) -> None:
        barrier.wait()  # maximize overlap
        for i in range(EVENTS_PER_THREAD):
            tracer.event("farm.job", 0.001, detail=f"evt{i}",
                         attrs={"program": f"w{tid}"})

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    lines = out.getvalue().splitlines()
    assert len(lines) == THREADS * EVENTS_PER_THREAD
    seen: dict[int, set[int]] = {tid: set() for tid in range(THREADS)}
    for line in lines:
        match = LINE.match(line)
        assert match, f"corrupt (interleaved?) line: {line!r}"
        seen[int(match.group(1))].add(int(match.group(2)))
    # nothing dropped, nothing duplicated
    assert all(len(events) == EVENTS_PER_THREAD
               for events in seen.values())


def test_event_delivery_tolerates_sinks_added_concurrently():
    tracer = Tracer()
    recorder = RecordingTelemetry()
    tracer.add_sink(recorder)
    total = 2000
    finals = []

    def late_sink(record) -> None:
        if record.detail == "final":
            finals.append(record)

    def churn() -> None:
        # registration racing delivery and other registrations: 125
        # sinks per thread appear while the tracer iterates its
        # per-record snapshots
        for _ in range(125):
            tracer.add_sink(late_sink)

    churners = [threading.Thread(target=churn) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for churner in churners:
            churner.start()
        for i in range(total):
            tracer.event("noise", detail=str(i))
    finally:
        for churner in churners:
            churner.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(churner.is_alive() for churner in churners)
    # the pre-registered sink saw every event, in order, exactly once
    assert [r.detail for r in recorder.events] \
        == [str(i) for i in range(total)]
    # no registration was lost to a racing one
    tracer.event("noise", detail="final")
    assert len(finals) == 4 * 125


def test_a_sink_may_add_a_sink_while_being_called():
    tracer = Tracer()
    late = RecordingTelemetry()

    def recruit(record):
        if record.detail == "first":
            tracer.add_sink(late)

    tracer.add_sink(recruit)
    tracer.event("noise", detail="first")
    tracer.event("noise", detail="second")
    # the sink joined mid-delivery: it sees only what came after
    assert [r.detail for r in late.snapshot()] == ["second"]


def test_scheduler_and_farm_events_print_as_whole_lines(tmp_path):
    """End to end: scheduler tasks and farm callbacks (on an executor
    thread) narrate through one printer without corrupting a line."""
    out = io.StringIO()
    scheduler = FleetScheduler(store=ResultStore(tmp_path))
    scheduler.tracer.add_sink(StagePrinter(stream=out))
    report = scheduler.run(load_fleet_specs({"fleets": [
        {"name": "alpha",
         "programs": [{"name": "p", "source": "int main() { return 1; }\n"}],
         "device_seeds": [1, 2]},
        {"name": "beta",
         "programs": [{"name": "p", "source": "int main() { return 1; }\n"}],
         "device_seeds": [2, 3]},
    ]}))
    report.require_ok()
    lines = out.getvalue().splitlines()
    assert lines, "the printer saw no events"
    shape = re.compile(r"^  \[[a-z.]+\].* \(\d+\.\d ms\)( \[FAILED\])?$")
    for line in lines:
        assert shape.match(line), f"corrupt line: {line!r}"
    # the one printer really did see both emitters
    assert any("[scheduler.batch]" in line for line in lines)
    assert any("[farm.job]" in line for line in lines)
