"""Async fleet scheduler: many deployments, one farm/store pair.

Run ten overlapping fleets through :class:`~repro.farm.executor.SimulationFarm`
one at a time and the same workload simulates ten times.  This module is
the asyncio service layer that removes the redundancy:
:class:`FleetScheduler` multiplexes many concurrent fleet deployments over
one farm/store pair.  Every in-flight fleet submits its measurement jobs
to a shared batch queue; the batcher dedups them by farm job key,
executes each unique job exactly once through the farm (sharded or not),
and fans the results back to every awaiting fleet.  Each farm job
compiles, signs and packages its own program, so the scheduler itself
compiles nothing.

::

    scheduler = FleetScheduler(store=ResultStore("benchmarks/results/farm"))
    report = scheduler.run([
        FleetRequest.from_spec({"name": "alpha", "workloads": ["crc32"]}),
        FleetRequest.from_spec({"name": "beta", "workloads": ["crc32",
                                                              "fft"]}),
    ])
    print(report.summary())   # crc32 simulated once, not twice

``eric serve --fleets spec.json`` is the command-line wrapper.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ConfigError, EricError
from repro.farm.executor import (FarmJobResult, SimulationFarm,
                                 format_failures)
from repro.farm.spec import JobMatrix, JobSpec
from repro.farm.store import ResultStore
from repro.obs.trace import TraceContext, Tracer
from repro.statics.fingerprint import model_fingerprint


@dataclass(frozen=True)
class FleetRequest:
    """One named fleet: the measurement jobs its deployment needs.

    ``jobs`` is a fully-expanded, validated spec tuple — one farm job
    per (program, config, device) the fleet serves.  Requests are the
    scheduler's unit of multiplexing; overlapping jobs across requests
    are exactly what the batch queue dedups.
    """

    name: str
    jobs: tuple[JobSpec, ...]

    def validate(self) -> "FleetRequest":
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                f"fleet name must be a non-empty string, got {self.name!r}")
        if not self.jobs:
            raise ConfigError(f"fleet {self.name!r} carries no jobs")
        for job in self.jobs:
            job.validate()
        return self

    @classmethod
    def from_matrix(cls, name: str,
                    matrix: JobMatrix | Sequence[JobSpec]) -> "FleetRequest":
        specs = (matrix.jobs() if isinstance(matrix, JobMatrix)
                 else tuple(matrix))
        return cls(name=name, jobs=specs).validate()

    @classmethod
    def from_spec(cls, entry: dict) -> "FleetRequest":
        """Parse one ``eric serve`` fleet entry: ``{"name": ...}`` plus
        the ``eric sweep`` matrix dialect (see
        :meth:`repro.farm.spec.JobMatrix.from_spec`)."""
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(
                'each fleet needs {"name": ..., <sweep matrix keys>}')
        options = dict(entry)
        return cls.from_matrix(options.pop("name"),
                               JobMatrix.from_spec(options))


def load_fleet_specs(spec: dict) -> tuple[FleetRequest, ...]:
    """Parse the ``eric serve --fleets`` JSON document::

        {"fleets": [
          {"name": "alpha", "workloads": ["crc32"],
           "device_seeds": [1, 2]},
          {"name": "beta", "workloads": ["crc32", "fft"]}
        ]}

    Fleet names must be unique — they key the per-fleet report lines.
    """
    if not isinstance(spec, dict):
        raise ConfigError("fleets spec must be a JSON object")
    unknown = set(spec) - {"fleets"}
    if unknown:
        raise ConfigError(f"unknown fleets-spec keys {sorted(unknown)}; "
                          f"expected only 'fleets'")
    entries = spec.get("fleets")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("fleets must be a non-empty list of fleet objects")
    requests = tuple(FleetRequest.from_spec(entry) for entry in entries)
    names = [request.name for request in requests]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ConfigError(f"duplicate fleet name(s): {sorted(duplicates)}")
    return requests


@dataclass(frozen=True)
class FleetServiceReport:
    """One fleet's trip through the scheduler."""

    name: str
    #: farm outcomes aligned with the request's job order.  A job another
    #: in-flight fleet executed first arrives here as the same shared
    #: outcome — per-fleet "executed" counts would double-count, so the
    #: authoritative execution tally lives in :class:`SchedulerReport`.
    results: tuple[FarmJobResult, ...]
    wall_s: float

    @property
    def records(self):
        return tuple(r.record for r in self.results
                     if r.record is not None)

    @property
    def failures(self) -> tuple[FarmJobResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def store_hits(self) -> int:
        return sum(1 for r in self.results if r.kind == "hit")

    @property
    def ok(self) -> bool:
        return not self.failures

    def require_ok(self) -> None:
        if self.failures:
            raise EricError(f"fleet {self.name!r}: " + format_failures(
                [(f.spec.display_name, f.error) for f in self.failures]))

    def summary(self) -> str:
        return (f"fleet {self.name!r}: {len(self.results)} job(s), "
                f"{self.store_hits} store hit(s), "
                f"{len(self.failures)} failed in "
                f"{self.wall_s * 1e3:.1f} ms")


@dataclass(frozen=True)
class SchedulerReport:
    """Aggregate of one :meth:`FleetScheduler.serve` call."""

    fleets: tuple[FleetServiceReport, ...]
    #: farm batches the shared queue ran while this serve was in flight
    batch_count: int
    wall_s: float
    store_path: str | None

    @property
    def requested(self) -> int:
        """Job requests across all fleets (with duplicates)."""
        return sum(len(fleet.results) for fleet in self.fleets)

    def _keys(self, kind: str | None = None) -> set:
        return {r.spec.key() for fleet in self.fleets
                for r in fleet.results if kind in (None, r.kind)}

    @property
    def unique_jobs(self) -> int:
        return len(self._keys())

    @property
    def executed(self) -> int:
        """Unique jobs of this serve's own fleets the farm actually
        simulated — the number the dedup guarantee bounds by
        :attr:`unique_jobs` no matter how many fleets (or concurrent
        serves) overlap."""
        return len(self._keys("executed"))

    @property
    def store_hits(self) -> int:
        return len(self._keys("hit"))

    @property
    def failures(self) -> tuple[tuple[str, FarmJobResult], ...]:
        return tuple((fleet.name, result) for fleet in self.fleets
                     for result in fleet.failures)

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def require_ok(self) -> None:
        if self.failures:
            raise EricError(format_failures(
                [(f"{name}/{r.spec.display_name}", r.error)
                 for name, r in self.failures], "scheduled job(s)"))

    def summary(self) -> str:
        return (f"scheduler: {len(self.fleets)} fleet(s), "
                f"{self.requested} job request(s) -> "
                f"{self.unique_jobs} unique, {self.executed} executed, "
                f"{self.store_hits} store hit(s) over "
                f"{self.batch_count} batch(es) in "
                f"{self.wall_s * 1e3:.1f} ms")


class FleetScheduler:
    """Multiplex concurrent fleet deployments over one farm/store pair.

    Args:
        store: the shared result store (None measures in-memory).
        jobs: farm worker processes per batch (with ``shards``,
            processes per shard).
        shards: >0 shards every batch over that many worker farms
            whose stores merge into ``store`` (required then).
        shard_root: per-shard store/spec directory (sharded only).
        tracer: the :class:`~repro.obs.trace.Tracer` shared with the
            farm (a memory-only one if not given).  Each fleet is a
            ``scheduler.fleet`` span and each executed batch a
            ``scheduler.batch`` span parented under the first
            requester's context, with the farm sweep (and its jobs,
            across process boundaries) beneath it (its ``coalesced``
            counts requests that attached to its jobs); its sinks see
            those spans, the ``scheduler.fleet.begin`` and
            ``scheduler.serve`` events, and the farm's own stages.

    The dedup guarantee does **not** depend on batching luck: a job key
    is tracked from first request to fan-back, so a fleet asking for a
    key that is queued or mid-execution attaches to the same future,
    and a key measured by an earlier batch is a store hit for every
    later one (with no store, a scheduler-side memo stands in).  N
    overlapping fleets cost one simulation per unique key — period.
    Forced re-measures are isolated: forced jobs batch separately,
    never attach to un-forced work, and never drag other fleets'
    un-forced jobs into a re-measure (see :meth:`measure`).
    """

    def __init__(self, store: ResultStore | None = None, *,
                 jobs: int = 1, shards: int = 0, shard_root=None,
                 tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.farm = SimulationFarm(store=store, jobs=jobs, shards=shards,
                                   shard_root=shard_root,
                                   tracer=self.tracer)
        self.store = store
        #: running totals over every batch run (all serves)
        self.batches = 0
        self.executed = 0
        self.store_hits = 0
        #: resolved outcomes by job key when there is no store, marked
        #: shared — the in-memory stand-in that keeps the exactly-once
        #: guarantee for keys whose batch already came and went
        self._done: dict[str, FarmJobResult] = {}
        # per-event-loop state, (re)created by _ensure_started.
        # In-flight work is keyed by (job key, forced): a forced
        # request must never attach to un-forced work (which may
        # resolve to a stale store hit), and vice versa.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wakeup: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        # pending entries carry the requester's trace context so the
        # batch span can parent under whoever triggered the batch
        self._pending: list[tuple[tuple[str, bool], JobSpec,
                                  TraceContext | None]] = []
        self._inflight: dict[tuple[str, bool], asyncio.Future] = {}
        #: requests that attached to each in-flight job's future
        self._coalesced: dict[tuple[str, bool], int] = {}
        # every job key embeds the model fingerprint: compute it now,
        # not inside whichever fleet asks for a key first
        model_fingerprint()

    # -- the shared batch queue -------------------------------------------

    def _ensure_started(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is loop and self._batcher is not None \
                and not self._batcher.done():
            return
        # first use on this loop (or a fresh asyncio.run): any state
        # from a previous, now-dead loop is unusable by construction
        self._loop = loop
        self._wakeup = asyncio.Event()
        self._pending = []
        self._inflight = {}
        self._coalesced = {}
        self._batcher = loop.create_task(self._batch_loop())

    async def measure(self, specs: Sequence[JobSpec],
                      force: bool = False,
                      trace_parent: TraceContext | None = None,
                      ) -> tuple[FarmJobResult, ...]:
        """Submit jobs to the shared queue; await fanned-back outcomes.

        Results align with ``specs``.  Keys already queued or executing
        (for *any* fleet) attach to the in-flight future instead of
        resubmitting — the exactly-once half of the scheduler contract.
        With no store, keys resolved by an earlier batch are served
        from the scheduler's own memo, so the guarantee holds across
        batches too.

        ``force`` requests a fresh measurement: forced jobs skip the
        memo, never attach to un-forced work (which may resolve to a
        store hit), and are batched separately so they never drag other
        fleets' un-forced jobs into a re-measure.  Concurrent *forced*
        requests for the same key still coalesce onto one execution.
        """
        # validate everything before touching shared state: a bad spec
        # must raise cleanly, not leave an orphaned in-flight future
        # that deadlocks the next request for the same key
        for spec in specs:
            spec.validate()
        self._ensure_started()
        loop = asyncio.get_running_loop()
        slots: list[FarmJobResult | asyncio.Future] = []
        queued = False
        for spec in specs:
            key = spec.key()
            if not force and self.store is None:
                done = self._done.get(key)
                if done is not None:
                    slots.append(done)
                    continue
            flight = (key, force)
            future = self._inflight.get(flight)
            if future is None:
                future = loop.create_future()
                self._inflight[flight] = future
                self._pending.append((flight, spec, trace_parent))
                queued = True
            else:
                self._coalesced[flight] = \
                    self._coalesced.get(flight, 0) + 1
            slots.append(future)
        if queued:
            self._wakeup.set()

        async def resolve(slot):
            if isinstance(slot, asyncio.Future):
                return await asyncio.shield(slot)
            return slot

        return tuple(await asyncio.gather(*(resolve(s) for s in slots)))

    async def _batch_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            # one yield lets jobs queued in the same tick join the drain
            await asyncio.sleep(0)
            self._wakeup.clear()
            batch, self._pending = self._pending, []
            if not batch:
                continue
            # forced jobs run as their own farm batch: one fleet's
            # --force must not re-measure (and re-persist over) other
            # fleets' un-forced jobs that happened to share the drain
            for forced in (False, True):
                group = [entry for entry in batch
                         if entry[0][1] == forced]
                if group:
                    await self._run_batch(group, forced)

    async def _run_batch(self,
                         batch: list[tuple[tuple[str, bool], JobSpec,
                                           TraceContext | None]],
                         force: bool) -> None:
        loop = asyncio.get_running_loop()
        specs = [spec for _, spec, _ in batch]
        # parent under the first requester that carried a context — a
        # batch mixing co-tenants still gets one span (the others show
        # up in its job count)
        parent = next((ctx for _, _, ctx in batch if ctx is not None),
                      None)
        span = self.tracer.start("scheduler.batch", parent=parent,
                                 attrs={"jobs": len(batch),
                                        "forced": force})
        error = None
        try:
            report = await loop.run_in_executor(
                None, self.farm.run, specs, force, span.context)
        except Exception as exc:  # farm/store failure: fail the batch,
            error = EricError(    # never the batcher itself
                f"farm batch of {len(batch)} job(s) failed: "
                f"{type(exc).__name__}: {exc}")
        # nothing attaches once the farm has returned: from here to the
        # futures' fan-back the batcher never yields
        span.attrs["coalesced"] = sum(self._coalesced.pop(flight, 0)
                                      for flight, _, _ in batch)
        if error is not None:
            span.finish(ok=False, detail=str(error))
            outcomes = {}
        else:
            self.batches += 1
            self.executed += report.executed
            self.store_hits += report.hits
            # a batch's keys are unique, so no slot is shared
            outcomes = {r.spec.key(): r for r in report.results}
            span.finish(ok=not report.failures,
                        detail=(f"{len(batch)} unique job(s): "
                                f"{report.hits} hit(s), {report.executed} "
                                f"executed, {len(report.failures)} failed"
                                + (" [forced]" if force else "")))
        for flight, spec, _ in batch:
            key = flight[0]
            future = self._inflight.pop(flight, None)
            outcome = outcomes.get(key)
            if outcome is not None and outcome.ok and self.store is None:
                # ok outcomes only: a failed job must retry on the next
                # request, exactly as the store-backed path does (failed
                # jobs are never persisted); later requests share it
                self._done[key] = replace(outcome, shared=True,
                                          wall_s=0.0)
            if future is None or future.done():
                continue
            if outcome is None:
                future.set_exception(error or EricError(
                    f"farm batch returned no outcome for "
                    f"{spec.display_name!r} (key {key[:12]})"))
            else:
                future.set_result(outcome)

    # -- fleets -----------------------------------------------------------

    async def deploy_fleet(self, request: FleetRequest,
                           force: bool = False,
                           trace_parent: TraceContext | None = None,
                           ) -> FleetServiceReport:
        """Serve one fleet: measure its jobs through the shared batch
        queue.  The fleet is a ``scheduler.fleet`` span — parented under
        ``trace_parent`` (e.g. a daemon request's root span) — whose
        context rides into the shared batch."""
        request.validate()
        start = time.perf_counter()
        span = self.tracer.start("scheduler.fleet", parent=trace_parent,
                                 attrs={"fleet": request.name,
                                        "jobs": len(request.jobs)})
        self.tracer.event("scheduler.fleet.begin",
                          detail=f"{len(request.jobs)} job(s)",
                          attrs={"fleet": request.name})
        try:
            results = await self.measure(request.jobs, force=force,
                                         trace_parent=span.context)
        except BaseException as exc:
            span.finish(ok=False, detail=f"{type(exc).__name__}: {exc}")
            raise
        report = FleetServiceReport(
            name=request.name, results=results,
            wall_s=time.perf_counter() - start)
        span.finish(ok=report.ok,
                    detail=(f"{report.store_hits} store hit(s), "
                            f"{len(report.failures)} failed"))
        return report

    async def serve(self, requests: Sequence[FleetRequest],
                    force: bool = False) -> SchedulerReport:
        """Deploy every fleet concurrently; aggregate one report.

        The report counts these fleets' outcomes alone, so
        ``report.executed`` vs ``report.unique_jobs`` states the dedup
        guarantee for them even when the scheduler is reused or serves
        concurrently.
        """
        requests = tuple(requests)
        if not requests:
            raise ConfigError("serve needs at least one fleet request")
        first_batch = self.batches
        start = time.perf_counter()
        fleets = await asyncio.gather(*(
            self.deploy_fleet(request, force=force)
            for request in requests))
        wall_s = time.perf_counter() - start
        report = SchedulerReport(
            fleets=tuple(fleets),
            batch_count=self.batches - first_batch,
            wall_s=wall_s,
            store_path=(str(self.store.path) if self.store is not None
                        else None))
        self.tracer.event("scheduler.serve", wall_s, ok=report.all_ok,
                          detail=(f"{len(fleets)} fleet(s): "
                                  f"{report.requested} requested, "
                                  f"{report.executed} executed, "
                                  f"{report.store_hits} store hit(s)"))
        return report

    async def aclose(self) -> None:
        """Stop the batcher and release in-flight futures."""
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        for future in self._inflight.values():
            if not future.done():
                future.cancel()
        self._inflight = {}
        self._pending = []

    def run(self, requests: Sequence[FleetRequest],
            force: bool = False) -> SchedulerReport:
        """Synchronous convenience: serve the fleets on a fresh event
        loop and shut the scheduler down (the ``eric serve`` path)."""

        async def _serve() -> SchedulerReport:
            try:
                return await self.serve(requests, force=force)
            finally:
                await self.aclose()

        return asyncio.run(_serve())
