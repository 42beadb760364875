#!/usr/bin/env python3
"""Durable serving: submit, crash mid-serve, resume from the journal.

The async fleet scheduler (``examples/async_fleets.py``) multiplexes
concurrent fleets, but everything it knows is in-memory — a crash
mid-serve loses every half-served fleet.  The serve daemon pairs the
scheduler with an append-only request journal:

* ``submit_fleets`` journals each fleet as a durable request — the
  submitter can exit, crash, or live in another process entirely;
* ``ServeDaemon`` admits journaled requests (per-tenant quotas, a
  pending-jobs watermark, priorities), serves them through the shared
  farm/store pair, and journals every state change before acting on
  it;
* a stopped daemon — graceful SIGTERM or hard crash — leaves its
  in-flight requests in the journal; the next daemon replays them,
  and jobs measured before the stop are store hits, not re-runs.

This example submits two fleets, stops the daemon at its first
checkpoint (an in-process stand-in for SIGTERM), then starts a fresh
daemon that resumes and finishes — with exactly one simulation per
job across both runs.

Run:  python examples/durable_daemon.py
"""

import asyncio
import pathlib
import sys
import tempfile

if True:  # allow running straight from a checkout
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.farm import ResultStore
from repro.obs import StagePrinter
from repro.service.daemon import (JournalStore, ServeDaemon,
                                  format_status, submit_fleets)

TELEMETRY_FW = """
int main() {
    print_str("telemetry firmware\\n");
    return 0;
}
"""

SENSOR_FW = """
int main() {
    print_str("sensor firmware\\n");
    return 0;
}
"""

#: Two fleets, each three devices: 6 jobs in total (the firmwares
#: differ, so the seed the fleets share is still two distinct jobs).
FLEETS = {"fleets": [
    {"name": "telemetry-rollout",
     "programs": [{"name": "telemetry", "source": TELEMETRY_FW}],
     "device_seeds": [0x9001, 0x9002, 0x9003]},
    {"name": "sensor-rollout",
     "programs": [{"name": "sensor", "source": SENSOR_FW}],
     "device_seeds": [0x9003, 0x9004, 0x9005]},
]}


class CrashAtFirstCheckpoint:
    """Stop the daemon as soon as it checkpoints — the moment a real
    deployment would be killed by SIGTERM or a node failure."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon

    def __call__(self, record) -> None:
        if record.name == "daemon.checkpoint":
            self.daemon.request_shutdown()


def main() -> int:
    work = pathlib.Path(tempfile.mkdtemp(prefix="durable-daemon-"))
    journal_dir, store_dir = work / "journal", work / "store"

    # 1. submit: the requests are durable before any daemon runs
    records = submit_fleets(JournalStore(journal_dir), FLEETS,
                            tenant="ops", priority=1)
    print(f"submitted {len(records)} request(s) to {journal_dir}")

    # 2. serve until the first checkpoint, then "crash"
    daemon = ServeDaemon(JournalStore(journal_dir),
                         store=ResultStore(store_dir),
                         checkpoint_every=1)
    daemon.tracer.add_sink(StagePrinter(stages="daemon."))
    daemon.tracer.add_sink(CrashAtFirstCheckpoint(daemon))
    crashed = asyncio.run(daemon.run(once=True))
    print(f"\ninterrupted: {crashed.summary()}\n")
    print(format_status(JournalStore(journal_dir)))

    # 3. a fresh daemon replays the journal and finishes the fleets;
    #    jobs measured before the crash come back as store hits
    daemon = ServeDaemon(JournalStore(journal_dir),
                         store=ResultStore(store_dir))
    daemon.tracer.add_sink(StagePrinter(stages="daemon."))
    print("\nrestarting ...")
    finished = asyncio.run(daemon.run(once=True))
    print(f"\nresumed: {finished.summary()}\n")
    print(format_status(JournalStore(journal_dir)))

    total = crashed.executed + finished.executed
    print(f"\nsimulations across crash + resume: {total} "
          f"(= total jobs; nothing measured twice)")
    assert finished.completed + crashed.completed == len(records)
    assert total == 6
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
