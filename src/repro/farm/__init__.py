"""repro.farm — the parallel simulation farm with a persistent store.

Every number the evaluation harness reports is the outcome of running a
(workload × :class:`~repro.core.config.EricConfig` × SoC-parameter)
combination on the simulated device.  The farm turns those combinations
into **content-addressed jobs** (:mod:`repro.farm.spec`), persists each
measurement as a JSONL record (:mod:`repro.farm.store`), and fans
un-measured jobs out over worker processes
(:mod:`repro.farm.executor`).  Re-running any matrix is incremental:
already-stored keys are served from disk, ``force=True`` re-measures.

    from repro.farm import JobMatrix, ResultStore, SimulationFarm

    matrix = JobMatrix(workloads=("crc32", "fft"))
    farm = SimulationFarm(store=ResultStore("benchmarks/results/farm"),
                          jobs=4)
    report = farm.run(matrix)
    print(report.summary())   # N jobs -> H store hits, E executed ...

The figure modules (:mod:`repro.eval.fig5`/``fig6``/``fig7``) and the
ablation benchmarks source their measurements through this subsystem;
``eric sweep`` exposes it on the command line.  Besides sizes, cycles
and stage times, every record carries the job device's PUF key-failure
probability, computed exactly from the arbiter model rather than
sampled (:meth:`~repro.puf.key_generator.PufKeyGenerator.failure_probability`).

Scaling past one machine, the same farm with ``shards=N`` cuts the
pending key space into contiguous ranges
(:class:`~repro.farm.spec.ShardPlan`), runs each shard as its own farm
against a per-shard store (:mod:`repro.farm.worker`, also the ``eric
worker`` entry point for remote machines), and merges the shard stores
back last-record-wins (:meth:`ResultStore.merge_from`)::

    farm = SimulationFarm(store=ResultStore("benchmarks/results/farm"),
                          shards=4)
    report = farm.run(JobMatrix(workloads=("crc32", "fft")))
"""

from repro.farm.coordinator import ShardOutcome
from repro.farm.doctor import (ShardLeftover, StoreDiagnosis,
                               diagnose_store)
from repro.farm.executor import (DYNAMIC_ATTACKER_SEEDS, FarmJobResult,
                                 FarmReport, SimulationFarm, execute_job)
from repro.farm.spec import (KEY_SCHEMA, PIPELINE_VARIANTS, JobMatrix,
                             JobSpec, ShardPlan, ShardSpec, SimParams)
from repro.farm.store import (DEFAULT_STORE_DIR, STORE_SCHEMA,
                              WALL_CLOCK_FIELDS, FarmRecord, MergeStats,
                              ResultStore)
from repro.farm.worker import load_shard, run_shard

__all__ = [
    "DEFAULT_STORE_DIR",
    "DYNAMIC_ATTACKER_SEEDS",
    "FarmJobResult",
    "FarmRecord",
    "FarmReport",
    "JobMatrix",
    "JobSpec",
    "KEY_SCHEMA",
    "MergeStats",
    "PIPELINE_VARIANTS",
    "ResultStore",
    "STORE_SCHEMA",
    "ShardLeftover",
    "ShardOutcome",
    "ShardPlan",
    "ShardSpec",
    "SimParams",
    "SimulationFarm",
    "StoreDiagnosis",
    "WALL_CLOCK_FIELDS",
    "diagnose_store",
    "execute_job",
    "load_shard",
    "run_shard",
]
