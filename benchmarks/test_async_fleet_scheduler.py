"""Async fleet scheduler — batching and dedup at deployment scale.

The claims, each load-bearing for the "one farm/store pair behind many
concurrent deployments" architecture:

* **exactly-once measurement**: N overlapping fleets whose workloads
  intersect trigger exactly one simulation per unique farm job key —
  the shared batch queue dedups across fleets, not just within one;
* **compiles only where a job measures**: each executed job compiles
  its program once, inside the farm job; the serving process itself
  compiles nothing, so with worker processes it makes no compile at all;
* **resume**: a warm-store rerun of the same fleets executes zero
  simulations and zero compiles (100% store hits);
* **fan-out**: with worker processes to fan out over, a batched sweep
  beats ``jobs=1`` wall-clock (gated on ``os.cpu_count() >= 2`` — the
  single-core CI container degenerates to serial + pool overhead).

Wall-time columns are machine-dependent and Volatile-masked; the
request/unique/executed counts are the stable content.
"""

import os
import time

import pytest

from repro.core import compiler_driver
from repro.eval.report import Volatile, format_table
from repro.farm import ResultStore
from repro.service.scheduler import FleetScheduler, load_fleet_specs

#: Three fleets sharing workloads: 8 job requests over 4 unique jobs
#: (and 4 unique source digests).  Heavy enough (~4 real simulations)
#: that per-process pool overhead cannot hide a real speedup.
FLEETS_SPEC = {"fleets": [
    {"name": "alpha", "workloads": ["basicmath", "qsort", "crc32"]},
    {"name": "beta", "workloads": ["qsort", "crc32", "fft"]},
    {"name": "gamma", "workloads": ["basicmath", "fft"]},
]}
REQUESTED = 8
UNIQUE_JOBS = 4
PARALLEL_JOBS = 4


@pytest.fixture
def compiles(monkeypatch):
    """Sources handed to ``compile_source`` in this process (forked
    farm workers count in their own copy)."""
    calls = []
    real = compiler_driver.compile_source

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(compiler_driver, "compile_source", counting)
    return calls


def _serve(store_dir, jobs, compiles):
    """One cold or warm serve: its report, wall seconds and the compiles
    it made in this process."""
    scheduler = FleetScheduler(store=ResultStore(store_dir), jobs=jobs)
    before = len(compiles)
    start = time.perf_counter()
    report = scheduler.run(load_fleet_specs(FLEETS_SPEC))
    return report, time.perf_counter() - start, len(compiles) - before


def _cycles_by_key(report):
    return {r.spec.key(): r.record.eric_cycles
            for fleet in report.fleets for r in fleet.results}


def test_async_scheduler_batches_overlapping_fleets(benchmark, record,
                                                    tmp_path, compiles):
    # fresh stores: the cold phases must measure simulations, not hits
    report1, wall1, compiles1 = benchmark.pedantic(
        lambda: _serve(tmp_path / "jobs1", 1, compiles),
        rounds=1, iterations=1)
    reportN, wallN, compilesN = _serve(tmp_path / "jobsN", PARALLEL_JOBS,
                                       compiles)
    # warm resume against the jobs=1 store: everything is measured
    warm, wall_warm, compiles_warm = _serve(tmp_path / "jobs1", 1,
                                            compiles)

    headers = ["path", "wall ms", "jobs", "fleets", "requested",
               "unique", "executed", "store hits"]
    rows = [
        ["cold serve", Volatile(f"{wall1 * 1e3:.1f}"), 1,
         len(report1.fleets), report1.requested, report1.unique_jobs,
         report1.executed, report1.store_hits],
        ["cold serve", Volatile(f"{wallN * 1e3:.1f}"), PARALLEL_JOBS,
         len(reportN.fleets), reportN.requested, reportN.unique_jobs,
         reportN.executed, reportN.store_hits],
        ["warm serve", Volatile(f"{wall_warm * 1e3:.1f}"), 1,
         len(warm.fleets), warm.requested, warm.unique_jobs,
         warm.executed, warm.store_hits],
    ]
    title = ("Async fleet scheduler: 3 overlapping fleets, "
             "cold vs parallel vs warm")
    record("async_fleet_scheduler",
           format_table(headers, rows, title=title),
           stable=format_table(headers, rows, title=title, stable=True))

    for report in (report1, reportN, warm):
        report.require_ok()
        assert report.requested == REQUESTED, report.summary()
        assert report.unique_jobs == UNIQUE_JOBS, report.summary()

    # THE batching guarantee: overlapping fleets cost exactly one
    # simulation per unique job key...
    assert report1.executed == UNIQUE_JOBS, report1.summary()
    assert report1.store_hits == 0, report1.summary()
    assert reportN.executed == UNIQUE_JOBS, reportN.summary()
    # ...and one compile per executed job, made by the farm job: in
    # this process at jobs=1, only in the workers at jobs>1
    assert compiles1 == UNIQUE_JOBS
    assert compilesN == 0

    # warm rerun: zero simulations, zero compiles, everything from
    # the store
    assert warm.executed == 0, warm.summary()
    assert warm.store_hits == UNIQUE_JOBS, warm.summary()
    assert compiles_warm == 0
    assert all(result.from_store for fleet in warm.fleets
               for result in fleet.results)

    # identical measurements regardless of execution path
    assert _cycles_by_key(report1) == _cycles_by_key(reportN)
    assert _cycles_by_key(warm) == _cycles_by_key(report1)

    # parallel fan-out only wins with hardware to fan out over; a
    # single-core runner degenerates to serial + pool overhead
    if os.cpu_count() and os.cpu_count() >= 2:
        assert wallN < wall1 * 0.9, (
            f"jobs={PARALLEL_JOBS} serve ({wallN:.2f}s) not faster "
            f"than jobs=1 ({wall1:.2f}s) on {os.cpu_count()} cpus")


def test_scheduler_dedups_within_and_across_fleets(tmp_path, compiles):
    """The same job named twice inside a fleet and again by two other
    fleets still simulates once (cheap inline probes)."""
    probe = {"name": "probe", "source": "int main() { return 4; }\n"}
    spec = {"fleets": [
        {"name": "twice", "programs": [probe, probe],
         "device_seeds": [9]},
        {"name": "again", "programs": [probe], "device_seeds": [9]},
        {"name": "wider", "programs": [probe], "device_seeds": [9, 10]},
    ]}
    scheduler = FleetScheduler(store=ResultStore(tmp_path / "store"))
    report = scheduler.run(load_fleet_specs(spec))
    report.require_ok()
    assert report.requested == 5
    assert report.unique_jobs == 2
    assert report.executed == 2, report.summary()
    # one compile per executed job (the two device seeds)
    assert len(compiles) == 2
    # every duplicate shares the one measured record
    cycles = {r.record.eric_cycles for fleet in report.fleets
              for r in fleet.results
              if r.spec.params.device_seed == 9}
    assert len(cycles) == 1
