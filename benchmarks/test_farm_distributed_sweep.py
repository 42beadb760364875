"""Distributed farm — sharded sweep vs single farm, merge, and resume.

Three claims, the distributed counterparts of the parallel-sweep bench:

* **equivalence**: a ``shards=2`` sweep on a fresh store produces
  records byte-identical (modulo wall-clock fields) to a ``jobs=1``
  sweep of the same matrix — sharding changes where a job runs, never
  what it measures;
* **merge**: every shard store merges into the main store
  last-record-wins, after which an *unsharded* run over the merged
  store executes zero simulations;
* **fan-out**: with cores to fan out over, the sharded sweep beats the
  single farm wall-clock (gated on ``os.cpu_count() >= 2`` — the
  single-core CI container degenerates to serial plus pool overhead).

Wall-time columns are machine-dependent and Volatile-masked; job, hit,
and merge counts are the stable content.
"""

import os
import time

from repro.core.config import EncryptionMode, EricConfig
from repro.eval.report import Volatile, format_table
from repro.farm import JobMatrix, ResultStore, SimulationFarm

#: 2 workloads x 2 configs: the same shape as examples/sweep_spec.json.
MATRIX = JobMatrix(
    workloads=("basicmath", "crc32"),
    configs=(EricConfig(), EricConfig(mode=EncryptionMode.PARTIAL)),
)
SHARDS = 2


def test_farm_distributed_sweep(benchmark, record, tmp_path):
    # single-farm reference on a fresh store
    farm = SimulationFarm(store=ResultStore(tmp_path / "jobs1"))
    start = time.perf_counter()
    reference = benchmark.pedantic(lambda: farm.run(MATRIX),
                                   rounds=1, iterations=1)
    wall_ref = time.perf_counter() - start
    reference.require_ok()

    # sharded sweep on its own fresh store, merged back by the farm
    coordinator = SimulationFarm(store=ResultStore(tmp_path / "sharded"),
                                 shards=SHARDS)
    start = time.perf_counter()
    sharded = coordinator.run(MATRIX)
    wall_sharded = time.perf_counter() - start
    sharded.require_ok()
    merged = sum(stats.merged for stats in coordinator.last_merge)

    # the merged store must serve an unsharded resume entirely
    start = time.perf_counter()
    resumed = SimulationFarm(
        store=ResultStore(tmp_path / "sharded")).run(MATRIX)
    wall_resume = time.perf_counter() - start

    headers = ["path", "wall ms", "shards", "executed", "store hits",
               "merged"]
    rows = [
        ["single farm", Volatile(f"{wall_ref * 1e3:.1f}"), "-",
         reference.executed, reference.hits, "-"],
        ["sharded sweep", Volatile(f"{wall_sharded * 1e3:.1f}"), SHARDS,
         sharded.executed, sharded.hits, merged],
        ["unsharded resume", Volatile(f"{wall_resume * 1e3:.1f}"), "-",
         resumed.executed, resumed.hits, "-"],
    ]
    title = (f"Distributed farm: {MATRIX.job_count} jobs, single farm "
             f"vs {SHARDS} coordinated shards")
    record("farm_distributed_sweep",
           format_table(headers, rows, title=title),
           stable=format_table(headers, rows, title=title, stable=True))

    # both cold runs measured everything
    assert reference.executed == MATRIX.job_count
    assert sharded.executed == MATRIX.job_count
    assert reference.hits == 0 and sharded.hits == 0
    assert merged == MATRIX.job_count

    # sharding never changes the measurement, only where it ran
    assert {r.key: r.stable_dict() for r in sharded.records} \
        == {r.key: r.stable_dict() for r in reference.records}

    # the merged store carries the whole matrix: zero simulations left
    assert resumed.executed == 0
    assert resumed.hit_rate == 1.0
    assert resumed.total_eric_cycles == reference.total_eric_cycles

    # shard fan-out only wins when there is hardware to fan out over
    if os.cpu_count() and os.cpu_count() >= 2:
        assert wall_sharded < wall_ref * 0.9, (
            f"shards={SHARDS} sweep ({wall_sharded:.2f}s) not faster "
            f"than the single farm ({wall_ref:.2f}s) on "
            f"{os.cpu_count()} cpus")
