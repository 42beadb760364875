"""Sharded dispatch: run a farm's pending jobs as per-shard worker farms.

A :class:`~repro.farm.executor.SimulationFarm` built with ``shards > 0``
serves its store hits and deduplicates its matrix exactly as an
unsharded farm does, then hands the pending jobs to
:func:`run_shards` instead of running them inline or in a process pool:

1. :meth:`~repro.farm.spec.ShardPlan.partition` the pending
   deduplicated key space into contiguous ranges and write one
   self-contained ``shard.json`` per range under
   ``<shard_root>/shard-NN/``;
2. run each shard in a worker process (inline when there is only one)
   — each worker is the ordinary farm pointed at its own per-shard
   :class:`~repro.farm.store.ResultStore` (the very same
   :func:`repro.farm.worker.run_shard` that ``eric worker`` runs on a
   remote machine);
3. :meth:`~repro.farm.store.ResultStore.merge_from` every shard store
   into the main store, last-record-wins, then cut each shard
   directory down to this run's work (its planned records; its spans
   move into the main trace);
4. report each pending job as its merged record or its worker's error.

Because step 2 goes through the on-disk shard spec, a shard can equally
be executed elsewhere (``eric worker shard.json --store DIR``) and its
JSONL shipped back — the merge step neither knows nor cares where a
shard store's bytes came from.  These are functions, not farm methods,
because :mod:`repro.farm.worker` imports the farm.
"""

from __future__ import annotations

import gc
import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from repro.farm.spec import ShardPlan, ShardSpec
from repro.farm.store import MergeStats, ResultStore
from repro.jsonlog import atomic_rewrite
from repro.obs.trace import TRACE_FILENAME, Tracer, merge_trace_files

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


def _shard_dir(shard_root: Path, shard: ShardSpec) -> Path:
    """Where one shard's spec and store live."""
    return Path(shard_root) / f"shard-{shard.index:02d}"


def write_shard_specs(plan: ShardPlan, shard_root: str | Path,
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
        directory = _shard_dir(shard_root, shard)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / SHARD_SPEC_FILENAME
        spec = shard.to_spec()
        if trace is not None:
            spec["trace"] = trace
        path.write_text(
            json.dumps(spec, indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def dispatch_shards(plan: ShardPlan, shard_root: Path, jobs: int,
                    force: bool, trace: dict | None,
                    tracer: Tracer) -> list[ShardOutcome]:
    """Run every shard of ``plan`` in its own worker process; each
    completed shard is a ``farm.shard`` event on ``tracer``."""
    spec_paths = write_shard_specs(plan, shard_root, trace=trace)
    tasks = [(shard, str(path), str(_shard_dir(shard_root, shard)))
             for shard, path in zip(plan.shards, spec_paths)]
    if len(tasks) == 1:
        # one shard degenerates to an inline worker — no pool tax
        shard, spec_path, store_dir = tasks[0]
        return [_collect(tracer, shard,
                         _run_shard(spec_path, store_dir, jobs, force))]
    outcomes: list[ShardOutcome] = []
    # forked shard workers freeze the heap they inherit, as the farm's
    # job workers do (see SimulationFarm._execute)
    with ProcessPoolExecutor(max_workers=len(tasks),
                             initializer=gc.freeze) as pool:
        submitted = {
            pool.submit(_run_shard, spec_path, store_dir, jobs,
                        force): shard
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
                        store_dir=str(_shard_dir(shard_root, shard)),
                        executed=0, hit_keys=(),
                        failures=tuple(
                            (job.key(),
                             f"shard {shard.index} worker died: "
                             f"{type(exc).__name__}: {exc}")
                            for job in shard.jobs),
                        wall_s=0.0)
                outcomes.append(_collect(tracer, shard, outcome))
    return outcomes


def _collect(tracer: Tracer, shard: ShardSpec,
             outcome: ShardOutcome) -> ShardOutcome:
    tracer.event(
        "farm.shard", outcome.wall_s, ok=not outcome.failures,
        detail=(f"shard {shard.index + 1}/{shard.count}: "
                f"{len(shard.jobs)} job(s), {outcome.executed} "
                f"executed, {len(outcome.hit_keys)} shard-store "
                f"hit(s), {len(outcome.failures)} failed"))
    return outcome


def _keep_only(store_dir: Path, keys: frozenset[str]) -> None:
    """Cut a merged shard store down to this run's planned records.

    Leftovers from earlier runs would otherwise pile up run after run,
    and every later worker would load them all.  Until the merge a
    crashed run's records stay put, for the next run to serve."""
    path = store_dir / ResultStore.filename
    found = ResultStore.scan(path, only=keys)
    if found.total != len(found.records):
        atomic_rewrite(path, "".join(
            record.to_json() + "\n"
            for _, record in sorted(found.records.items())
        ).encode("utf-8"))


def run_shards(store: ResultStore, specs, pending: list[int], *,
               shards: int, shard_root: Path, jobs: int, force: bool,
               tracer: Tracer, trace: dict | None,
               ) -> tuple[list[tuple], tuple[MergeStats, ...]]:
    """Measure ``specs[i]`` for every ``i`` in ``pending`` (unique keys
    the main store does not serve) across at most ``shards`` workers.

    Returns ``(finished, merges)``: one ``(index, record, error,
    wall_s, from_store)`` tuple per pending job, in pending order, and
    the per-shard merge outcomes.  ``trace`` is the sweep's wire
    context, written into every shard.json when the tracer is
    file-backed; the workers' trace files then merge back next to the
    records, so the waterfall spans the process boundary."""
    if not pending:
        return [], ()
    plan = ShardPlan.partition([specs[i] for i in pending], shards)
    outcomes = dispatch_shards(plan, shard_root, jobs, force, trace,
                               tracer)

    # merge each shard store restricted to its *planned* keys: a
    # reused shard directory may hold leftover records from earlier
    # runs, and those must not resurrect over fresher main-store data
    planned = {shard.index: frozenset(job.key() for job in shard.jobs)
               for shard in plan.shards}
    merges = tuple(
        store.merge_from(outcome.store_dir, keys=planned[outcome.index])
        for outcome in sorted(outcomes, key=lambda o: o.index))
    if tracer.path is not None and outcomes:
        # shard workers traced into their own store dirs; pull those
        # spans back (concatenation is the merge), then drop them so
        # the next run does not append them to the main trace again
        shard_traces = [Path(outcome.store_dir) / TRACE_FILENAME
                        for outcome in outcomes]
        merge_trace_files(tracer.path, shard_traces)
        for path in shard_traces:
            path.unlink(missing_ok=True)
    for outcome in outcomes:
        _keep_only(Path(outcome.store_dir), planned[outcome.index])

    # every pending key is now either in the merged store or carries a
    # worker-reported error
    errors = {key: error for outcome in outcomes
              for key, error in outcome.failures}
    hit_keys = {key for outcome in outcomes for key in outcome.hit_keys}
    finished = []
    for i in pending:
        key = specs[i].key()
        record = store.get(key)
        error = errors.get(key)
        if record is not None and error is not None and not force:
            # a dying worker blames its whole shard, but this job had
            # already completed and its record merged; under resume
            # semantics a stored record is the answer (with force the
            # record may predate the re-measure, so the failure stands)
            error = None
        if record is None and error is None:
            error = (f"shard worker returned no record and no error "
                     f"for key {key[:12]}")
        ok = error is None
        finished.append((i, record if ok else None, error,
                         record.wall_s if ok else 0.0,
                         key in hit_keys))
    return finished, merges
