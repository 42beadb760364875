#!/usr/bin/env python3
"""Async fleet serving: many deployments, one farm/store pair.

``DeploymentSession.deploy_fleet`` serves one fleet at a time, and
every fleet measures its own jobs — run ten overlapping fleets and the
same workload simulates ten times.  The asyncio service layer removes
both redundancies:

* every concurrent fleet shares **one artifact cache** — concurrent
  ``prepare()`` calls for the same program coalesce onto a single
  build (``AsyncSingleFlight``), so N fleets pay one compile+sign;
* every concurrent fleet shares **one farm/store pair** — measurement
  requests from all in-flight fleets land in a shared batch queue,
  are deduplicated by farm job key, simulate exactly once, and fan
  back to every awaiting fleet.

This example serves three overlapping fleets concurrently and prints
the scheduler's accounting: 8 job requests, 6 unique jobs, 6
simulations, 2 compiles — then a warm rerun that simulates nothing at
all.

Run:  python examples/async_fleets.py
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


async def serve(store_dir: str) -> None:
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
        # the multiplexing guarantee, in numbers:
        assert report.executed == report.unique_jobs
        assert report.cache_stats.compiles == 2  # telemetry + sensor
    finally:
        await scheduler.aclose()


async def resume(store_dir: str) -> None:
    scheduler = FleetScheduler(store=ResultStore(store_dir))
    try:
        report = await scheduler.serve(load_fleet_specs(FLEETS))
        print()
        print("warm rerun:", report.summary())
        assert report.executed == 0          # nothing simulated twice
        assert report.store_hits == report.unique_jobs
        assert report.cache_stats.compiles == 0   # nothing compiled either
    finally:
        await scheduler.aclose()


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="eric-async-fleets-")
    print(f"store: {store_dir}\n")
    asyncio.run(serve(store_dir))
    asyncio.run(resume(store_dir))


if __name__ == "__main__":
    main()
