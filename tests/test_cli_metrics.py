"""CLI metrics, pinned: every counter each dumped ``metrics.json`` holds.

``eric sweep --metrics`` and ``eric serve --metrics`` dump the
process-wide registry next to the store; ``eric daemon`` dumps it into
the journal directory.  Each case resets the registry, runs one
command, and compares the whole ``counters`` map of the dump with a
fixed one — so moving where a count is taken cannot silently add, drop
or double a counter.
"""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import METRICS, load_metrics

PROBE = "int main() { return 0; }\n"
BROKEN = "int main() { return 0 }\n"


def fleet(name: str, seeds, source: str = PROBE) -> dict:
    return {"name": name, "programs": [{"name": name, "source": source}],
            "device_seeds": list(seeds), "simulate": False}


#: two 2-device fleets that overlap on seed 2: 4 requests, 3 keys
OVERLAPPING = {"fleets": [fleet("alpha", [1, 2]), fleet("beta", [2, 3])]}
#: two 2-device fleets with no key in common
DISJOINT = {"fleets": [fleet("alpha", [1, 2]), fleet("gamma", [4, 5])]}


def write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def run(argv, code: int = 0) -> None:
    METRICS.reset()  # the dump reads the process-wide registry
    assert main(argv + ["--quiet"]) == code, argv


def counters(root) -> dict:
    return load_metrics(root)["counters"]


def job_wall_count(root) -> int:
    histograms = load_metrics(root)["histograms"]
    return histograms.get("farm.job.wall_s", {}).get("count", 0)


def test_sweep_counts_executed_shared_and_failed(tmp_path, capsys):
    """One source named twice shares one measurement; a program that
    does not parse fails."""
    spec = write(tmp_path / "sweep.json", {
        "programs": [{"name": "a", "source": PROBE},
                     {"name": "b", "source": PROBE},
                     {"name": "broken", "source": BROKEN}],
        "simulate": False})
    store = tmp_path / "farm"
    run(["sweep", spec, "--store", str(store), "--metrics"], code=1)
    assert counters(store) == {"farm.executed": 1, "farm.shared": 1,
                               "farm.failed": 1}
    assert job_wall_count(store) == 1


def test_serve_counts_executions_and_coalesces(tmp_path, capsys):
    fleets = write(tmp_path / "fleets.json", OVERLAPPING)
    store = tmp_path / "farm"
    run(["serve", "--fleets", fleets, "--store", str(store),
         "--metrics"])
    assert counters(store) == {"farm.executed": 3,
                               "scheduler.coalesced": 1}
    assert job_wall_count(store) == 3


class TestDaemonCounters:
    @pytest.fixture
    def store(self, tmp_path, capsys):
        """A store the daemon runs below start warm from: the
        overlapping fleets' 3 keys, plus seeds 4 and 5."""
        store = tmp_path / "farm"
        for spec in (OVERLAPPING, DISJOINT):
            fleets = write(tmp_path / "warm.json", spec)
            run(["serve", "--fleets", fleets, "--store", str(store)])
        return str(store)

    def daemon(self, tmp_path, name: str, spec: dict, store: str,
               *options: str, code: int = 0) -> dict:
        journal = tmp_path / name
        fleets = write(tmp_path / f"{name}.json", spec)
        run(["daemon", "--journal", str(journal), "--fleets", fleets,
             "--store", store, "--once", *options], code=code)
        return counters(journal)

    def test_cold_daemon(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        fleets = write(tmp_path / "fleets.json", OVERLAPPING)
        run(["daemon", "--journal", str(journal), "--fleets", fleets,
             "--store", str(tmp_path / "farm"), "--once"])
        assert counters(journal) == {
            "admission.admitted": 2, "daemon.requests_done": 2,
            "farm.executed": 3, "scheduler.coalesced": 1}
        assert job_wall_count(journal) == 3

    def test_warm_daemon(self, tmp_path, store):
        assert self.daemon(tmp_path, "warm", OVERLAPPING, store) == {
            "admission.admitted": 2, "daemon.requests_done": 2,
            "store.hits": 3, "scheduler.coalesced": 1}

    def test_deferred_request(self, tmp_path, store):
        assert self.daemon(tmp_path, "defer", DISJOINT, store,
                           "--max-pending-jobs", "2") == {
            "admission.admitted": 2, "admission.deferred": 1,
            "daemon.requests_done": 2, "store.hits": 4}

    def test_rejected_request(self, tmp_path, store):
        assert self.daemon(tmp_path, "reject", DISJOINT, store,
                           "--max-pending-jobs", "2",
                           "--overflow", "reject") == {
            "admission.admitted": 1, "admission.rejected": 1,
            "daemon.requests_done": 1, "store.hits": 2}

    def test_failing_request(self, tmp_path, store):
        spec = {"fleets": [fleet("alpha", [1]),
                           fleet("broken", [1], source=BROKEN)]}
        assert self.daemon(tmp_path, "fail", spec, store, code=1) == {
            "admission.admitted": 2, "daemon.requests_done": 1,
            "daemon.requests_failed": 1, "store.hits": 1,
            "farm.failed": 1}
