"""ServeDaemon: the durable, long-running serve loop.

:class:`~repro.service.scheduler.FleetScheduler` multiplexes concurrent
fleets, but everything it knows is in-memory — a crash mid-serve loses
every half-served fleet.  The daemon closes that gap by pairing the
scheduler with a :class:`~repro.service.daemon.journal.JournalStore`:

* **durability** — every request and every state change is journaled
  before it is acted on; a restart replays the journal and resumes
  every unfinished request.  Resume is incremental *by construction*:
  jobs measured before the crash are in the result store, so
  re-measuring a half-served fleet costs only the missing keys.
* **admission control** — per-tenant quotas and a pending-jobs
  watermark (see :mod:`~repro.service.daemon.admission`) bound how
  much work is in flight; excess submissions are deferred in the
  journal or rejected with a retry-after hint, never accumulated in
  daemon memory.
* **priorities** — admitted requests dispatch into the scheduler's
  batch queue highest-priority first (ties: oldest submission first).
* **graceful shutdown** — on :meth:`request_shutdown` (SIGTERM in the
  CLI) in-flight requests finish their current job chunk, journal a
  ``running -> admitted`` checkpoint, and the daemon exits; the next
  daemon picks them up exactly where the store left off.

Out-of-process submission rides the journal file itself: ``eric
submit`` appends a ``submitted`` record and the daemon's poll loop
picks it up — the journal is the seam that decouples request intake
from the delivery pipeline.

Observability rides the scheduler's tracer.  Each served request is
a root ``daemon.request`` span (persisted when the tracer is
file-backed; its detail names the request, its state and its counts,
its ``state`` attribute the final state).  Every other stage is an
event that reaches only the tracer's sinks (``METRICS`` among them):
``daemon.admit``, ``daemon.resume``, ``daemon.reject`` (covers both
deferrals and rejections, which fail), ``daemon.checkpoint``, and
``daemon.serve`` (one per :meth:`ServeDaemon.run`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.errors import ConfigError, EricError
from repro.farm.executor import format_failures
from repro.farm.store import ResultStore
from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer
from repro.service.daemon.admission import (REJECT, AdmissionController,
                                            AdmissionPolicy)
from repro.service.daemon.journal import (LIVE_STATES, TERMINAL_STATES,
                                          JournalRecord, JournalStore)
from repro.service.scheduler import FleetRequest, FleetScheduler


def _priority_order(records) -> list[JournalRecord]:
    """Dispatch order: highest priority first, then oldest, then id."""
    return sorted(records, key=lambda r: (-r.priority, r.submitted_at,
                                          r.request_id))


@dataclass(frozen=True)
class DaemonReport:
    """Aggregate of one :meth:`ServeDaemon.run` call."""

    #: leftover admitted/running requests replayed from the journal
    resumed: int
    #: submitted requests admitted this run (resumed ones excluded)
    admitted: int
    #: distinct requests deferred at least once this run
    deferred: int
    #: requests rejected (journaled ``cancelled``) this run
    rejected: int
    #: requests that reached ``done`` this run
    completed: int
    #: requests that reached ``failed`` this run
    failed: int
    #: in-flight requests checkpointed back to ``admitted`` at shutdown
    checkpointed: int
    #: farm jobs actually simulated this run (store hits excluded)
    executed: int
    #: jobs served straight from the result store this run
    store_hits: int
    #: high-water mark of not-yet-measured jobs across admitted/running
    #: requests — the quantity the admission watermark bounds
    peak_pending_jobs: int
    wall_s: float
    #: True when the run ended on request_shutdown (vs idle exit)
    stopped: bool

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        return (f"daemon: {self.resumed} resumed, {self.admitted} "
                f"admitted, {self.deferred} deferred, {self.rejected} "
                f"rejected; {self.completed} done, {self.failed} "
                f"failed, {self.checkpointed} checkpointed; "
                f"{self.executed} executed, {self.store_hits} store "
                f"hit(s), peak {self.peak_pending_jobs} pending "
                f"job(s) in {self.wall_s * 1e3:.1f} ms"
                + (" [shutdown]" if self.stopped else ""))


class ServeDaemon:
    """Journal-backed serve loop over one :class:`FleetScheduler`.

    Args:
        journal: the durable request journal.
        store: shared result store the scheduler measures against
            (None serves in-memory — journaled requests then resume
            from scratch, which tests use for speed).
        scheduler: an explicit scheduler (exclusive with ``store`` /
            ``jobs`` / ``shards``); must expose ``measure``, ``tracer``,
            ``aclose`` and running totals ``executed``/``store_hits``.
        policy: admission policy (default :class:`AdmissionPolicy`).
        jobs / shards / shard_root: the built-in scheduler's
            :class:`~repro.farm.executor.SimulationFarm` knobs (as
            :class:`FleetScheduler`).
        max_active: requests served concurrently; admitted requests
            beyond this wait their turn in priority order.
        checkpoint_every: jobs measured per chunk between shutdown
            checks and journal checkpoints (the shutdown latency /
            journal growth trade-off).
        poll_interval: seconds between journal re-reads when idle —
            the out-of-process submission pickup latency.
        tracer: the :class:`~repro.obs.trace.Tracer` of the built-in
            scheduler (a memory-only one if not given), shared down
            the stack; every served request becomes a **root**
            ``daemon.request`` span whose context flows down scheduler
            → farm → worker subprocesses (one connected trace per
            request).  Its sinks, ``METRICS`` among them, see the
            ``daemon.*`` stages plus the scheduler's own.  Exclusive
            with ``scheduler`` — an explicit scheduler brings its own
            tracer.
        metrics_interval: seconds between periodic
            :meth:`~repro.obs.metrics.MetricsRegistry.dump` snapshots
            into the journal directory (``metrics.json``); a final
            dump always happens at loop exit.
    """

    def __init__(self, journal: JournalStore, *,
                 store: ResultStore | None = None, scheduler=None,
                 policy: AdmissionPolicy | None = None, jobs: int = 1,
                 shards: int = 0, shard_root=None, max_active: int = 4,
                 checkpoint_every: int = 8, poll_interval: float = 0.25,
                 tracer: Tracer | None = None,
                 metrics_interval: float = 5.0) -> None:
        if scheduler is not None and (store is not None or shards
                                      or tracer is not None):
            raise ConfigError(
                "pass either an existing scheduler or store/shard/"
                "tracer knobs, not both")
        if max_active < 1:
            raise ConfigError("max_active must be at least 1")
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be at least 1")
        if poll_interval <= 0:
            raise ConfigError("poll_interval must be positive")
        if metrics_interval <= 0:
            raise ConfigError("metrics_interval must be positive")
        self.journal = journal
        self.scheduler = scheduler if scheduler is not None else \
            FleetScheduler(store=store, jobs=jobs, shards=shards,
                           shard_root=shard_root, tracer=tracer)
        self.tracer = self.scheduler.tracer
        self.tracer.add_sink(METRICS)
        self.admission = AdmissionController(policy)
        self.max_active = max_active
        self.checkpoint_every = checkpoint_every
        self.poll_interval = poll_interval
        self.metrics_interval = metrics_interval
        #: high-water mark of the watermark-bounded pending-jobs count
        self.peak_pending_jobs = 0
        self._stop_flag = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        # also (re)initialized per run(); set here so helpers that
        # read them are safe before the first run
        self._active: dict[str, asyncio.Task] = {}
        self._deferred_seen: set[str] = set()
        self._counts: dict[str, int] = {}

    @property
    def _stopping(self) -> bool:
        # the flag is set synchronously by request_shutdown; the event
        # (set via call_soon_threadsafe) may lag until the loop yields
        return self._stop_flag \
            or (self._stop is not None and self._stop.is_set())

    def _count(self, name: str, by: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + by

    def request_shutdown(self) -> None:
        """Ask the serve loop to checkpoint and exit (signal-safe and
        thread-safe; callable before or during :meth:`run`)."""
        self._stop_flag = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)

    # -- load accounting ---------------------------------------------------

    def _pending_jobs(self) -> int:
        """Not-yet-measured jobs across admitted/running requests —
        the quantity the admission watermark bounds."""
        return sum(max(r.total_jobs - r.done_jobs, 0)
                   for r in self.journal.records()
                   if r.state in ("admitted", "running"))

    def _tenant_live(self) -> dict[str, int]:
        live: dict[str, int] = {}
        for record in self.journal.records():
            if record.state in ("admitted", "running"):
                live[record.tenant] = live.get(record.tenant, 0) + 1
        return live

    def _dump_metrics(self) -> None:
        """Gauge the journal's state distribution and persist the
        process-wide registry next to it (``<journal>/metrics.json``,
        atomic replace).  Best-effort: a full disk must not take down
        the serve loop."""
        counts = {state: 0 for state in LIVE_STATES + TERMINAL_STATES}
        for record in self.journal.records():
            if record.state in counts:
                counts[record.state] += 1
        for state, count in counts.items():
            METRICS.set_gauge(f"journal.{state}", count)
        METRICS.set_gauge("daemon.active_requests", len(self._active))
        METRICS.set_gauge("daemon.pending_jobs", self._pending_jobs())
        try:
            METRICS.dump(self.journal.root)
        except OSError:
            pass

    # -- the serve loop ----------------------------------------------------

    async def run(self, *, once: bool = False) -> DaemonReport:
        """Serve the journal: replay leftovers, admit, dispatch.

        ``once`` exits when the journal holds no live requests and no
        request is being served (batch mode / tests); otherwise the
        loop polls for new submissions until :meth:`request_shutdown`.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        if self._stop_flag:
            self._stop.set()
        self._active = {}
        self._deferred_seen = set()
        self._counts = {}
        self.peak_pending_jobs = 0
        start = time.perf_counter()
        executed_before = self.scheduler.executed
        hits_before = self.scheduler.store_hits
        self.journal.reload()
        self._replay()
        stop_waiter = loop.create_task(self._stop.wait())
        last_dump = time.monotonic()
        try:
            while not self._stopping:
                self.journal.reload()
                self._admit()
                self._dispatch(loop)
                if time.monotonic() - last_dump >= self.metrics_interval:
                    self._dump_metrics()
                    last_dump = time.monotonic()
                if once and not self._active \
                        and not self.journal.live():
                    break
                await self._wait_for_activity(stop_waiter)
                self._prune_active()
        finally:
            stop_waiter.cancel()
            stopped = self._stopping
            # graceful drain: in-flight requests observe the stop flag
            # between chunks and checkpoint themselves
            if self._active:
                await asyncio.gather(*self._active.values(),
                                     return_exceptions=True)
            self._active = {}
            await self.scheduler.aclose()
            self._dump_metrics()
        wall_s = time.perf_counter() - start
        report = DaemonReport(
            resumed=self._counts.get("resumed", 0),
            admitted=self._counts.get("admitted", 0),
            deferred=len(self._deferred_seen),
            rejected=self._counts.get("rejected", 0),
            completed=self._counts.get("completed", 0),
            failed=self._counts.get("failed", 0),
            checkpointed=self._counts.get("checkpointed", 0),
            executed=self.scheduler.executed - executed_before,
            store_hits=self.scheduler.store_hits - hits_before,
            peak_pending_jobs=self.peak_pending_jobs,
            wall_s=wall_s, stopped=stopped)
        self.tracer.event("daemon.serve", wall_s, ok=report.all_ok,
                          detail=report.summary())
        return report

    async def _wait_for_activity(self, stop_waiter: asyncio.Task) -> None:
        """Sleep until a served request finishes, shutdown is
        requested, or the poll interval elapses (new submissions are
        only visible by re-reading the journal file)."""
        waiters = set(self._active.values())
        waiters.add(stop_waiter)
        await asyncio.wait(waiters, timeout=self.poll_interval,
                           return_when=asyncio.FIRST_COMPLETED)

    def _prune_active(self) -> None:
        alive: dict[str, asyncio.Task] = {}
        for request_id, task in self._active.items():
            if task.done():
                task.exception()  # consume: _serve_request never raises
            else:
                alive[request_id] = task
        self._active = alive

    def _replay(self) -> None:
        """Startup replay: every admitted/running leftover resumes.

        A ``running`` leftover is the signature of a hard crash (a
        graceful shutdown checkpoints back to ``admitted``); both kinds
        re-enter the dispatch queue, and jobs already in the result
        store make the re-measure incremental.
        """
        for record in self.journal.by_state("admitted", "running"):
            if record.state == "running":
                self.journal.transition(record.request_id, "admitted",
                                        done_jobs=record.done_jobs)
            self._count("resumed")
            self.tracer.event("daemon.resume",
                              detail=(f"request {record.request_id} "
                                      f"({record.state} at crash, "
                                      f"attempt {record.attempts}, "
                                      f"{record.done_jobs}/"
                                      f"{record.total_jobs} job(s) "
                                      f"done)"),
                              attrs={"fleet": record.fleet_name})

    def _admit(self) -> None:
        """Run admission over submitted requests in priority order."""
        tenant_live = self._tenant_live()
        pending = self._pending_jobs()
        for record in _priority_order(self.journal.by_state("submitted")):
            decision = self.admission.decide(
                record, pending_jobs=pending,
                tenant_live=tenant_live.get(record.tenant, 0))
            if decision.admitted:
                self.journal.transition(record.request_id, "admitted")
                self._count("admitted")
                pending += max(record.total_jobs - record.done_jobs, 0)
                tenant_live[record.tenant] = \
                    tenant_live.get(record.tenant, 0) + 1
                self.peak_pending_jobs = max(self.peak_pending_jobs,
                                             pending)
                self.tracer.event("daemon.admit",
                                  detail=(f"request {record.request_id} "
                                          f"priority {record.priority} "
                                          f"({record.total_jobs} job(s), "
                                          f"tenant {record.tenant})"),
                                  attrs={"fleet": record.fleet_name})
            elif decision.action == REJECT:
                self.journal.transition(
                    record.request_id, "cancelled",
                    error=f"rejected: {decision.describe()}")
                self._count("rejected")
                self.tracer.event("daemon.reject", ok=False,
                                  detail=(f"request {record.request_id} "
                                          f"{decision.describe()}"),
                                  attrs={"fleet": record.fleet_name})
            else:  # deferred: stays submitted, reconsidered next pass
                if record.request_id not in self._deferred_seen:
                    self._deferred_seen.add(record.request_id)
                    self.tracer.event(
                        "daemon.reject",
                        detail=(f"request {record.request_id} "
                                f"{decision.describe()}"),
                        attrs={"fleet": record.fleet_name})

    def _dispatch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start serve tasks for admitted requests, priority first."""
        for record in _priority_order(self.journal.by_state("admitted")):
            if len(self._active) >= self.max_active:
                break
            if record.request_id in self._active:
                continue
            self._active[record.request_id] = loop.create_task(
                self._serve_request(record.request_id))

    async def _serve_request(self, request_id: str) -> None:
        record = self.journal.get(request_id)
        start = time.perf_counter()
        # the request's ROOT span: everything below — scheduler fleet
        # batches, farm sweeps, worker-subprocess jobs — parents under
        # this context, so one submission is one connected trace
        span = self.tracer.start("daemon.request",
                                 attrs={"request_id": request_id,
                                        "fleet": record.fleet_name,
                                        "tenant": record.tenant,
                                        "priority": record.priority})
        try:
            request = FleetRequest.from_spec(record.fleet)
        except EricError as exc:
            # a spec that no longer parses is terminally broken — a
            # crash-loop of re-admissions would never get further
            self.journal.transition(request_id, "running",
                                    attempts=record.attempts + 1)
            self._finish(request_id, (), error=str(exc), start=start,
                         span=span)
            return
        record = self.journal.transition(
            request_id, "running", done_jobs=0,
            attempts=record.attempts + 1)
        jobs = request.jobs
        results = []
        try:
            for at in range(0, len(jobs), self.checkpoint_every):
                if self._stopping:
                    self.journal.transition(request_id, "admitted",
                                            done_jobs=len(results))
                    self._count("checkpointed")
                    self.tracer.event(
                        "daemon.checkpoint",
                        detail=(f"request {request_id} journaled for "
                                f"resume at {len(results)}/"
                                f"{len(jobs)} job(s)"),
                        attrs={"fleet": record.fleet_name})
                    span.finish(detail=(f"request {request_id} "
                                        f"checkpointed at {len(results)}/"
                                        f"{len(jobs)} job(s)"))
                    return
                chunk = jobs[at:at + self.checkpoint_every]
                results.extend(await self.scheduler.measure(
                    chunk, trace_parent=span.context))
                if len(results) < len(jobs):
                    self.journal.transition(request_id, "running",
                                            done_jobs=len(results))
                    self.tracer.event(
                        "daemon.checkpoint",
                        detail=(f"request {request_id} at "
                                f"{len(results)}/{len(jobs)} job(s)"),
                        attrs={"fleet": record.fleet_name})
        except Exception as exc:  # batch-level failure: this request
            self._finish(request_id, results,  # fails, the loop lives
                         error=f"{type(exc).__name__}: {exc}",
                         start=start, span=span)
            return
        self._finish(request_id, results, start=start, span=span)

    def _finish(self, request_id: str, results, *, start: float, span,
                error: str | None = None) -> None:
        failures = [(r.spec.display_name, r.error)
                    for r in results if not r.ok]
        if error is None and failures:
            error = format_failures(failures, limit=3)
        summary = {
            "jobs": len(results),
            "store_hits": sum(1 for r in results if r.kind == "hit"),
            "failures": len(failures),
            "wall_s": time.perf_counter() - start,
        }
        state = "failed" if error is not None else "done"
        self.journal.transition(request_id, state, error=error,
                                result=summary, done_jobs=len(results))
        self._count("failed" if error is not None else "completed")
        span.attrs["state"] = state
        span.finish(ok=error is None,
                    detail=(f"request {request_id} {state}: "
                            f"{summary['jobs']} job(s), "
                            f"{summary['store_hits']} store hit(s), "
                            f"{summary['failures']} failed"
                            + (f" — {error}" if error else "")))
