"""CI smoke: kill a serving daemon with SIGTERM, restart it, and the
journaled fleets complete with zero re-simulation; then a live daemon
picks up a fleet another process submits while it runs.

The out-of-process version of ``benchmarks/test_daemon_resume.py``:
``eric submit`` journals two fleets, ``eric daemon`` serves them as a
real subprocess, SIGTERM lands mid-serve (after the first result hits
the store), and a second daemon finishes the job.  Every simulation
appends exactly one store line, so the final line count doubling as
the unique-key count is the zero-re-simulation proof.  A third daemon
runs without ``--once``; once it is polling, ``eric submit`` appends a
fleet from another process, the daemon's journal reload must find it
and serve it, and SIGTERM must end the daemon cleanly.

Runs locally too::

    PYTHONPATH=src python benchmarks/smoke/daemon_resume.py
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from _bootstrap import ROOT  # noqa: E402 — wires sys.path

from repro.farm import ResultStore  # noqa: E402
from repro.service.daemon import JournalStore  # noqa: E402

#: Two fleets sharing one seed: 8 job requests over 7 unique keys.
FLEETS = {"fleets": [
    {"name": "alpha",
     "programs": [{"name": "probe",
                   "source": "int main() { return 0; }\n"}],
     "device_seeds": [1, 2, 3, 4]},
    {"name": "beta",
     "programs": [{"name": "probe",
                   "source": "int main() { return 0; }\n"}],
     "device_seeds": [4, 5, 6, 7]},
]}
UNIQUE_JOBS = 7
#: Submitted to a running daemon: seed 7 is already stored, 8 and 9
#: are the only new keys.
LATE_FLEETS = {"fleets": [
    {"name": "gamma",
     "programs": [{"name": "probe",
                   "source": "int main() { return 0; }\n"}],
     "device_seeds": [7, 8, 9]},
]}
LATE_NEW_KEYS = 2


def _store_lines(store_dir) -> int:
    path = ResultStore(store_dir).path
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines()
               if line.strip())


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(args, log):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(), stdout=log, stderr=subprocess.STDOUT)


def _live_pickup(journal_dir, store_dir, spec_path, log,
                 log_path) -> str:
    """Phase 3: start a daemon without ``--once``; once it polls,
    submit ``spec_path`` from another process, wait until the daemon
    has served it, and SIGTERM it.  Returns the request id."""
    # the daemon's first periodic metrics dump comes from its poll
    # loop, after it read the journal
    metrics_path = os.path.join(journal_dir, "metrics.json")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)
    known = JournalStore(journal_dir).keys()
    daemon = _cli(["daemon", "--journal", journal_dir,
                   "--store", store_dir, "--quiet",
                   "--poll-interval", "0.05",
                   "--metrics-interval", "0.1"], log)
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(metrics_path):
            assert daemon.poll() is None, (
                f"live daemon exited early; see {log_path}")
            assert time.monotonic() < deadline, (
                f"live daemon never reached its poll loop; "
                f"see {log_path}")
            time.sleep(0.01)
        submit = _cli(["submit", spec_path, "--journal", journal_dir],
                      log)
        assert submit.wait(timeout=60) == 0, "late eric submit failed"
        (late_id,) = JournalStore(journal_dir).keys() - known
        deadline = time.monotonic() + 120
        while JournalStore(journal_dir).get(late_id).state != "done":
            assert daemon.poll() is None, (
                f"live daemon exited before serving {late_id}; "
                f"see {log_path}")
            assert time.monotonic() < deadline, (
                f"request {late_id} not done within 120s; "
                f"see {log_path}")
            time.sleep(0.05)
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=120) == 0, (
            f"live daemon SIGTERM exit was not graceful; see {log_path}")
        return late_id
    finally:
        if daemon.poll() is None:  # a failed check: leave no daemon
            daemon.kill()          # serving forever
            daemon.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir",
                        help="journal/store parent (default: temp dir)")
    args = parser.parse_args(argv)
    work = args.workdir or tempfile.mkdtemp(prefix="daemon-smoke-")
    os.makedirs(work, exist_ok=True)
    journal_dir = os.path.join(work, "journal")
    store_dir = os.path.join(work, "store")
    spec_path = os.path.join(work, "fleets.json")
    log_path = os.path.join(work, "daemon.log")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(FLEETS, handle)

    with open(log_path, "w", encoding="utf-8") as log:
        submit = _cli(["submit", spec_path, "--journal", journal_dir],
                      log)
        assert submit.wait(timeout=60) == 0, "eric submit failed"
        assert len(JournalStore(journal_dir).live()) == 2

        # phase 1: a real daemon subprocess, SIGTERM after the first
        # simulated job lands in the store
        daemon = _cli(["daemon", "--journal", journal_dir,
                       "--store", store_dir, "--once", "--quiet",
                       "--checkpoint-every", "1"], log)
        deadline = time.monotonic() + 120
        while _store_lines(store_dir) < 1:
            assert daemon.poll() is None, (
                f"daemon exited before measuring anything; "
                f"see {log_path}")
            assert time.monotonic() < deadline, (
                f"no store line within 120s; see {log_path}")
            time.sleep(0.01)
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=120) == 0, (
            f"SIGTERM exit was not graceful; see {log_path}")

    interrupted = _store_lines(store_dir)
    leftovers = JournalStore(journal_dir).live()
    print(f"after SIGTERM: {interrupted}/{UNIQUE_JOBS} store line(s), "
          f"{len(leftovers)} live request(s) journaled")
    assert 1 <= interrupted < UNIQUE_JOBS, interrupted
    assert leftovers, "SIGTERM landed but nothing was left to resume"

    # phase 2: a fresh daemon drains the journal and exits cleanly
    with open(log_path, "a", encoding="utf-8") as log:
        daemon = _cli(["daemon", "--journal", journal_dir,
                       "--store", store_dir, "--once", "--quiet"], log)
        assert daemon.wait(timeout=300) == 0, (
            f"resume daemon failed; see {log_path}")

    records = JournalStore(journal_dir).records()
    states = sorted(r.state for r in records)
    assert states == ["done", "done"], states
    resumed = [r for r in records if r.attempts > 1]
    assert resumed, "no request recorded a second attempt"
    final = _store_lines(store_dir)
    print(f"after resume: every request done, {final} store line(s)")
    # zero re-simulation: one store line per unique key, ever
    assert final == UNIQUE_JOBS, final

    # phase 3: a daemon serving without --once picks up a submission
    # another process appends to the journal it has already loaded
    late_path = os.path.join(work, "late.json")
    with open(late_path, "w", encoding="utf-8") as handle:
        json.dump(LATE_FLEETS, handle)
    with open(log_path, "a", encoding="utf-8") as log:
        late_id = _live_pickup(journal_dir, store_dir, late_path, log,
                               log_path)
    late = _store_lines(store_dir)
    print(f"live pickup: request {late_id} done, {late} store line(s)")
    # the store gained exactly the late fleet's new keys
    assert late == UNIQUE_JOBS + LATE_NEW_KEYS, late
    print("PASS: daemon SIGTERM/resume smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
