"""FarmCoordinator: shard one matrix across workers, merge the stores.

The coordinator turns the farm from a process pool into the
coordinator/worker architecture the evaluation grid needs at scale:

1. serve whatever the **main store** already holds (exactly like a
   plain :class:`~repro.farm.executor.SimulationFarm` resume);
2. :meth:`~repro.farm.spec.ShardPlan.partition` the remaining
   deduplicated key space into contiguous ranges and write one
   self-contained ``shard.json`` per range under
   ``<store>/shards/shard-NN/``;
3. dispatch each shard to a worker process — each worker is the
   existing farm pointed at its own per-shard
   :class:`~repro.farm.store.ResultStore` (the very same
   :func:`repro.farm.worker.run_shard` that ``eric worker`` runs on a
   remote machine);
4. :meth:`~repro.farm.store.ResultStore.merge_from` every shard store
   into the main store, last-record-wins;
5. report one aggregate :class:`~repro.farm.executor.FarmReport`.

Because step 3 goes through the on-disk shard spec, a shard can equally
be executed elsewhere (``eric worker shard.json --store DIR``) and its
JSONL shipped back — the coordinator's merge step neither knows nor
cares where a shard store's bytes came from.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.farm.executor import (FarmJobResult, FarmReport, expand_specs,
                                 serve_store_hits,
                                 share_follower_outcomes)
from repro.farm.spec import JobMatrix, JobSpec, ShardPlan, ShardSpec
from repro.farm.store import MergeStats, ResultStore
from repro.obs.metrics import METRICS
from repro.obs.trace import (TRACE_FILENAME, TraceContext, Tracer,
                             merge_trace_files)

SHARD_SPEC_FILENAME = "shard.json"


@dataclass(frozen=True)
class ShardOutcome:
    """What one worker reports back (picklable, record-free: the
    records themselves travel through the shard store's JSONL)."""

    index: int
    store_dir: str
    executed: int
    #: keys the worker served from its own (warm) shard store
    hit_keys: tuple[str, ...]
    #: (job key, error string) per failed job
    failures: tuple[tuple[str, str], ...]
    wall_s: float


def _run_shard(spec_path: str, store_dir: str, jobs: int,
               force: bool) -> ShardOutcome:
    """Process-pool entry point: execute one shard from its spec file.

    Top-level so it pickles; loads the shard from disk rather than
    taking specs in-memory so the in-process path exercises exactly
    what a remote ``eric worker`` would.
    """
    from repro.farm.worker import load_shard, read_shard_trace, run_shard

    shard = load_shard(spec_path)
    report = run_shard(shard, store_dir, jobs=jobs, force=force,
                       trace=read_shard_trace(spec_path))
    return ShardOutcome(
        index=shard.index,
        store_dir=store_dir,
        executed=report.executed,
        hit_keys=tuple(r.spec.key() for r in report.results
                       if r.from_store),
        failures=tuple((r.spec.key(), r.error)
                       for r in report.results if not r.ok),
        wall_s=report.wall_s,
    )


class FarmCoordinator:
    """Distributes a :class:`JobMatrix` over sharded workers.

    Drop-in for :class:`SimulationFarm` wherever only ``run(matrix,
    force=...)`` and the returned report are used (the figure modules,
    ``eric eval``).

    Args:
        store: the **main** result store shards merge into (required —
            merging is the coordinator's whole job).
        shards: maximum shard count; a matrix with fewer unique keys
            gets fewer (never empty) shards.
        jobs_per_shard: worker processes *inside* each shard's farm.
            The default 1 treats shards as the unit of parallelism.
        shard_root: where per-shard stores and specs live (default:
            ``<store>/shards``).
        progress: optional ``callback(done, total, result)``, fired per
            job for main-store hits and per merged job once a shard
            completes.
        tracer: the :class:`~repro.obs.trace.Tracer` the coordinator
            emits through (a memory-only one if not given): a run is a
            ``farm.sweep`` span, each completed shard a ``farm.shard``
            event and each main-store hit or merged job a ``farm.job``
            event (the workers' own per-job events stay in their
            processes).  When it is file-backed, the sweep's context
            rides into every shard.json, and each worker's shard-store
            trace file is merged back next to the records (so the
            assembled waterfall spans the process boundary).
    """

    def __init__(self, store: ResultStore, shards: int = 2,
                 jobs_per_shard: int = 1,
                 shard_root: str | Path | None = None,
                 progress=None, tracer: Tracer | None = None) -> None:
        if store is None:
            raise ConfigError(
                "FarmCoordinator needs a main store to merge shard "
                "results into; use SimulationFarm for store-less runs")
        if shards < 1:
            raise ConfigError("shards must be at least 1")
        if jobs_per_shard < 1:
            raise ConfigError("jobs_per_shard must be at least 1")
        self.store = store
        self.shards = shards
        self.jobs_per_shard = jobs_per_shard
        self.shard_root = (Path(shard_root) if shard_root is not None
                           else store.root / "shards")
        self.progress = progress
        self.tracer = tracer if tracer is not None else Tracer()
        #: per-shard merge outcomes of the last run (CLI reporting)
        self.last_merge: tuple[MergeStats, ...] = ()

    # ------------------------------------------------------------------
    def plan(self, matrix: JobMatrix | tuple[JobSpec, ...] | list[JobSpec],
             force: bool = False) -> ShardPlan:
        """The shard plan ``run`` would execute: the matrix minus what
        the main store already holds, cut into contiguous key ranges.
        With ``force`` the whole matrix is re-planned."""
        specs = expand_specs(matrix)
        pending = [spec for spec in specs
                   if force or spec.key() not in self.store]
        if not pending:
            return ShardPlan(shards=())
        return ShardPlan.partition(pending, self.shards)

    def write_shard_specs(self, plan: ShardPlan,
                          trace: dict | None = None) -> list[Path]:
        """Materialize one ``shard.json`` (plus store dir) per shard
        under ``shard_root`` — the files ``eric worker`` consumes.

        ``trace`` (a :meth:`TraceContext.to_wire` dict) is written
        under the spec's ``"trace"`` key so a worker — local pool or
        remote machine — parents its spans under this run.
        ``ShardSpec.from_spec`` ignores unknown keys, so traced specs
        stay readable by pre-tracing workers and vice versa."""
        paths = []
        for shard in plan.shards:
            shard_dir = self._shard_dir(shard)
            shard_dir.mkdir(parents=True, exist_ok=True)
            path = shard_dir / SHARD_SPEC_FILENAME
            spec = shard.to_spec()
            if trace is not None:
                spec["trace"] = trace
            path.write_text(
                json.dumps(spec, indent=2, sort_keys=True)
                + "\n", encoding="utf-8")
            paths.append(path)
        return paths

    def _shard_dir(self, shard: ShardSpec) -> Path:
        return self.shard_root / f"shard-{shard.index:02d}"

    # ------------------------------------------------------------------
    def run(self, matrix: JobMatrix | tuple[JobSpec, ...] | list[JobSpec],
            force: bool = False,
            trace_parent: TraceContext | None = None) -> FarmReport:
        """Measure ``matrix``: serve main-store hits, shard the rest
        over worker processes, merge, and aggregate one report."""
        specs = expand_specs(matrix)
        start = time.perf_counter()
        keys = [spec.key() for spec in specs]
        results: list[FarmJobResult | None] = [None] * len(specs)
        total = len(specs)
        span = self.tracer.start("farm.sweep", parent=trace_parent,
                                 attrs={"jobs": total,
                                        "shards": self.shards})

        # -- phase 1: serve main-store hits; dedupe within the matrix --
        pending, followers, done = serve_store_hits(
            specs, keys, self.store, force, results, self._announce)

        # -- phase 2: shard the pending key space and dispatch ----------
        plan = ShardPlan.partition([specs[i] for i in pending],
                                   self.shards) if pending \
            else ShardPlan(shards=())
        # trace context crosses into the workers only when their spans
        # have a file to land in
        traced = self.tracer.path is not None
        trace = span.context.to_wire() if traced else None
        outcomes = self._dispatch(plan, force, trace) \
            if plan.shards else []

        # -- phase 3: merge shard stores into the main store, each
        # restricted to its *planned* keys: a reused shard directory
        # may hold leftover records from earlier runs, and those must
        # not resurrect over fresher main-store data ---------------------
        planned = {shard.index: frozenset(job.key() for job in shard.jobs)
                   for shard in plan.shards}
        self.last_merge = tuple(
            self.store.merge_from(outcome.store_dir,
                                  keys=planned[outcome.index])
            for outcome in sorted(outcomes, key=lambda o: o.index))
        if traced and outcomes:
            # shard workers traced into their own store dirs; pull
            # those spans back so the main waterfall crosses the
            # process boundary (concatenation is the merge)
            merge_trace_files(
                self.tracer.path,
                [Path(outcome.store_dir) / TRACE_FILENAME
                 for outcome in outcomes])

        # -- phase 4: aggregate — every pending key is now either in the
        # merged store or carries a worker-reported error ---------------
        errors = {key: error for outcome in outcomes
                  for key, error in outcome.failures}
        hit_keys = {key for outcome in outcomes
                    for key in outcome.hit_keys}
        for i in pending:
            key = keys[i]
            record = self.store.get(key)
            error = errors.get(key)
            if record is not None and error is not None and not force:
                # a dying worker blames its whole shard, but this job
                # had already completed and its record merged; under
                # resume semantics a stored record is the answer (with
                # force the record may predate the re-measure, so the
                # failure stands)
                error = None
            if record is None and error is None:
                error = (f"shard worker returned no record and no "
                         f"error for key {key[:12]}")
            results[i] = FarmJobResult(
                spec=specs[i], record=record if error is None else None,
                error=error, from_store=key in hit_keys,
                wall_s=record.wall_s if record is not None
                and error is None else 0.0)
            done += 1
            self._announce(done, total, results[i])

        # -- phase 5: duplicates share their leader's outcome -----------
        share_follower_outcomes(specs, results, followers, done,
                                self._announce)

        wall_s = time.perf_counter() - start
        report = FarmReport(
            results=tuple(results), wall_s=wall_s,
            jobs=self.jobs_per_shard, store_path=str(self.store.path),
            shards=self.shards)
        span.finish(ok=not report.failures,
                    detail=(f"{report.hits} hits / {report.executed} "
                            f"executed / {len(report.failures)} failed "
                            f"across {plan.count} shard(s)"))
        return report

    def run_batch(self, specs, force: bool = False,
                  trace_parent: TraceContext | None = None):
        """Batch-submission entry point, drop-in for
        :meth:`SimulationFarm.run_batch`: measure a bag of specs and
        return ``(report, outcomes_by_key)`` — the async scheduler
        neither knows nor cares whether its backend shards."""
        report = self.run(tuple(specs), force=force,
                          trace_parent=trace_parent)
        return report, report.by_key()

    def _dispatch(self, plan: ShardPlan, force: bool,
                  trace: dict | None) -> list[ShardOutcome]:
        """Run every shard of ``plan`` in its own worker process."""
        spec_paths = self.write_shard_specs(plan, trace=trace)
        tasks = [(shard, str(path), str(self._shard_dir(shard)))
                 for shard, path in zip(plan.shards, spec_paths)]
        outcomes: list[ShardOutcome] = []
        if len(tasks) == 1:
            # one shard degenerates to an inline worker — no pool tax
            shard, spec_path, store_dir = tasks[0]
            outcomes.append(self._collect(
                shard, _run_shard(spec_path, store_dir,
                                  self.jobs_per_shard, force)))
            return outcomes
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            submitted = {
                pool.submit(_run_shard, spec_path, store_dir,
                            self.jobs_per_shard, force): shard
                for shard, spec_path, store_dir in tasks}
            outstanding = set(submitted)
            while outstanding:
                finished, outstanding = wait(outstanding,
                                             return_when=FIRST_COMPLETED)
                for future in finished:
                    shard = submitted[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:  # worker process died
                        outcome = ShardOutcome(
                            index=shard.index,
                            store_dir=str(self._shard_dir(shard)),
                            executed=0, hit_keys=(),
                            failures=tuple(
                                (job.key(),
                                 f"shard {shard.index} worker died: "
                                 f"{type(exc).__name__}: {exc}")
                                for job in shard.jobs),
                            wall_s=0.0)
                    outcomes.append(self._collect(shard, outcome))
        return outcomes

    def _collect(self, shard: ShardSpec,
                 outcome: ShardOutcome) -> ShardOutcome:
        self.tracer.event(
            "farm.shard", outcome.wall_s, ok=not outcome.failures,
            detail=(f"shard {shard.index + 1}/{shard.count}: "
                    f"{len(shard.jobs)} job(s), {outcome.executed} "
                    f"executed, {len(outcome.hit_keys)} shard-store "
                    f"hit(s), {len(outcome.failures)} failed"))
        return outcome

    def _announce(self, done: int, total: int,
                  result: FarmJobResult) -> None:
        # the coordinator is the authoritative metrics emitter: shard
        # farms run with metrics=False, so these counts never double
        if result.from_store:
            METRICS.inc("store.hits")
        elif result.shared:
            METRICS.inc("farm.shared")
        elif not result.ok:
            METRICS.inc("farm.failed")
        else:
            METRICS.inc("farm.executed")
            METRICS.observe("farm.job.wall_s", result.wall_s)
        self.tracer.event("farm.job", result.wall_s, ok=result.ok,
                          detail=("store hit" if result.from_store
                                  else result.error
                                  or "merged from shard"),
                          attrs={"program": result.spec.display_name})
        if self.progress is not None:
            try:
                self.progress(done, total, result)
            except Exception:
                pass  # progress hooks must never break a sweep
