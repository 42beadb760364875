#!/usr/bin/env python3
"""Async fleet serving: many deployments, one farm/store pair.

Serve fleets one at a time and every fleet measures its own jobs —
run ten overlapping fleets and the same workload simulates ten times.
The asyncio service layer removes that redundancy: every concurrent
fleet shares **one farm/store pair**.  Measurement requests from all
in-flight fleets land in a shared batch queue, are deduplicated by
farm job key, run exactly once (each job compiles, signs, packages and
simulates its own program), and fan back to every awaiting fleet.

This example serves three overlapping fleets concurrently and prints
the scheduler's accounting: 8 job requests, 6 unique jobs, 6
simulations, 6 compiles — then a warm rerun that neither simulates nor
compiles anything.

Run:  python examples/async_fleets.py
"""

import asyncio
import pathlib
import sys
import tempfile

if True:  # allow running straight from a checkout
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core import compiler_driver
from repro.farm import ResultStore
from repro.obs import StagePrinter
from repro.service.scheduler import FleetScheduler, load_fleet_specs

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

#: Three fleets, defined in the same JSON dialect ``eric serve
#: --fleets`` reads.  They overlap: the telemetry firmware on device
#: seed 2 is wanted by all three.
FLEETS = {"fleets": [
    {"name": "eu-rollout",
     "programs": [{"name": "telemetry", "source": TELEMETRY_FW}],
     "device_seeds": [1, 2]},
    {"name": "us-rollout",
     "programs": [{"name": "telemetry", "source": TELEMETRY_FW}],
     "device_seeds": [2, 3]},
    {"name": "lab-bench",
     "programs": [{"name": "telemetry", "source": TELEMETRY_FW},
                  {"name": "sensor", "source": SENSOR_FW}],
     "device_seeds": [2, 4]},
]}


def count_compiles() -> list:
    """Wrap the compiler's entry point so the demo can count compiles
    (the farm runs its jobs in this process at its default jobs=1)."""
    calls = []
    real = compiler_driver.compile_source

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    compiler_driver.compile_source = counting
    return calls


async def serve(store_dir: str, compiles: list) -> None:
    scheduler = FleetScheduler(store=ResultStore(store_dir))
    # narrate the scheduler's stages: fleet begin/end, batches, the
    # serve itself
    scheduler.tracer.add_sink(StagePrinter(stages="scheduler."))
    try:
        report = await scheduler.serve(load_fleet_specs(FLEETS))
        print()
        for fleet in report.fleets:
            print(fleet.summary())
        print(report.summary())
        # the multiplexing guarantee, in numbers: one simulation and
        # one compile per unique job, however many fleets asked for it
        assert report.executed == report.unique_jobs == 6
        assert len(compiles) == report.executed
    finally:
        await scheduler.aclose()


async def resume(store_dir: str, compiles: list) -> None:
    scheduler = FleetScheduler(store=ResultStore(store_dir))
    try:
        report = await scheduler.serve(load_fleet_specs(FLEETS))
        print()
        print("warm rerun:", report.summary())
        assert report.executed == 0          # nothing simulated twice
        assert report.store_hits == report.unique_jobs
        assert not compiles                  # nothing compiled either
    finally:
        await scheduler.aclose()


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="eric-async-fleets-")
    print(f"store: {store_dir}\n")
    compiles = count_compiles()
    asyncio.run(serve(store_dir, compiles))
    compiles.clear()
    asyncio.run(resume(store_dir, compiles))


if __name__ == "__main__":
    main()
