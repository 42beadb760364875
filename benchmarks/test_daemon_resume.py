"""Durable daemon — crash/resume and backpressure at serving scale.

The claims, each load-bearing for the "journaled fleet queue in front
of one farm/store pair" architecture:

* **durable resume**: a daemon stopped mid-serve (graceful checkpoint
  or hard crash) loses no requests — a fresh daemon replays the
  journal and completes every fleet;
* **zero re-simulation**: jobs measured before the stop are served
  from the result store after it, so crash + resume costs exactly one
  simulation per unique job key in total (the store's line count is
  the proof: every real simulation appends exactly one line);
* **backpressure**: the pending-jobs watermark bounds admitted work —
  excess requests defer in the journal (never in daemon memory), are
  observable as ``daemon.reject`` events, and still complete.

Wall-time columns are machine-dependent and Volatile-masked; the
request/executed/store-line counts are the stable content.
"""

import asyncio
import time

from repro.eval.report import Volatile, format_table
from repro.farm import ResultStore
from repro.obs.sinks import RecordingTelemetry
from repro.service.daemon import (AdmissionPolicy, JournalStore,
                                  ServeDaemon, submit_fleets)

PROBE = "int main() { return 0; }\n"

#: Two fleets sharing one seed: 6 job requests over 5 unique keys.
FLEETS_SPEC = {"fleets": [
    {"name": "alpha", "programs": [{"name": "probe", "source": PROBE}],
     "device_seeds": [1, 2, 3]},
    {"name": "beta", "programs": [{"name": "probe", "source": PROBE}],
     "device_seeds": [3, 4, 5]},
]}
REQUESTED = 6
UNIQUE_JOBS = 5


def _run(daemon):
    start = time.perf_counter()
    report = asyncio.run(daemon.run(once=True))
    return report, time.perf_counter() - start


def _store_lines(store_dir) -> int:
    path = ResultStore(store_dir).path
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines()
               if line.strip())


class _CrashAtFirstCheckpoint:
    """Tracer sink that stops the daemon at its first checkpoint — an
    in-process stand-in for SIGTERM landing mid-serve."""

    def __init__(self, daemon):
        self.daemon = daemon

    def __call__(self, record):
        if record.name == "daemon.checkpoint":
            self.daemon.request_shutdown()


def test_daemon_crash_then_resume_zero_resimulation(record, tmp_path):
    store_dir = tmp_path / "farm"
    journal_dir = tmp_path / "journal"
    submit_fleets(JournalStore(journal_dir), FLEETS_SPEC)

    # phase 1: serve until the first checkpoint, then "crash"
    daemon1 = ServeDaemon(JournalStore(journal_dir),
                          store=ResultStore(store_dir),
                          checkpoint_every=1)
    daemon1.tracer.add_sink(_CrashAtFirstCheckpoint(daemon1))
    crashed, wall1 = _run(daemon1)
    lines_after_crash = _store_lines(store_dir)

    # phase 2: a fresh daemon (fresh journal/store handles — nothing
    # in-memory survives) resumes and finishes everything
    daemon2 = ServeDaemon(JournalStore(journal_dir),
                          store=ResultStore(store_dir))
    finished, wall2 = _run(daemon2)
    lines_final = _store_lines(store_dir)

    headers = ["phase", "wall ms", "completed", "checkpointed",
               "resumed", "executed", "store hits", "store lines"]
    rows = [
        ["crash mid-serve", Volatile(f"{wall1 * 1e3:.1f}"),
         crashed.completed, crashed.checkpointed, crashed.resumed,
         crashed.executed, crashed.store_hits, lines_after_crash],
        ["resume", Volatile(f"{wall2 * 1e3:.1f}"),
         finished.completed, finished.checkpointed, finished.resumed,
         finished.executed, finished.store_hits, lines_final],
    ]
    title = (f"Durable daemon: {len(FLEETS_SPEC['fleets'])} fleets "
             f"({REQUESTED} jobs, {UNIQUE_JOBS} unique), crash at "
             f"first checkpoint, then resume")
    record("daemon_resume",
           format_table(headers, rows, title=title),
           stable=format_table(headers, rows, title=title, stable=True))

    # the crash really interrupted mid-serve: progress was made, but
    # not all of it, and the in-flight requests were checkpointed
    assert crashed.stopped, crashed.summary()
    assert crashed.checkpointed >= 1, crashed.summary()
    assert 1 <= crashed.executed < UNIQUE_JOBS, crashed.summary()
    assert crashed.completed < len(FLEETS_SPEC["fleets"])

    # the resume finished every journaled request
    assert finished.resumed >= 1, finished.summary()
    states = [r.state for r in JournalStore(journal_dir).records()]
    assert states == ["done"] * len(FLEETS_SPEC["fleets"]), states

    # THE durability guarantee: crash + resume simulate each unique
    # key exactly once — every simulation appends one store line, so
    # the file itself is the re-simulation counter
    assert crashed.executed + finished.executed == UNIQUE_JOBS, (
        crashed.summary(), finished.summary())
    assert lines_final == UNIQUE_JOBS, lines_final


def test_watermark_backpressure_defers_and_completes(record, tmp_path):
    journal_dir = tmp_path / "journal"
    journal = JournalStore(journal_dir)
    for name, seeds in (("a", [11, 12]), ("b", [13, 14]),
                        ("c", [15, 16])):
        submit_fleets(journal, {
            "name": name,
            "programs": [{"name": "probe", "source": PROBE}],
            "device_seeds": seeds})

    telemetry = RecordingTelemetry()
    daemon = ServeDaemon(
        JournalStore(journal_dir), store=ResultStore(tmp_path / "farm"),
        policy=AdmissionPolicy(max_pending_jobs=2), max_active=1)
    daemon.tracer.add_sink(telemetry)
    report, wall = _run(daemon)

    headers = ["watermark", "wall ms", "completed", "deferred",
               "peak pending jobs", "reject spans"]
    deferrals = telemetry.stages("daemon.reject")
    rows = [[2, Volatile(f"{wall * 1e3:.1f}"), report.completed,
             report.deferred, report.peak_pending_jobs,
             len(deferrals)]]
    title = ("Daemon backpressure: 3x2-job fleets through a "
             "2-pending-job watermark")
    record("daemon_backpressure",
           format_table(headers, rows, title=title),
           stable=format_table(headers, rows, title=title, stable=True))

    # every fleet completes, but admitted work never exceeded the
    # watermark: deferrals lived in the journal, not daemon memory
    assert report.completed == 3, report.summary()
    assert report.peak_pending_jobs <= 2, report.summary()
    assert report.deferred >= 1, report.summary()
    assert deferrals, "expected daemon.reject telemetry for deferrals"
    assert all("defer" in event.detail for event in deferrals)
