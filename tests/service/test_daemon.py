"""ServeDaemon: admission, priorities, checkpoints, crash resume."""

import asyncio
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.farm import ResultStore
from repro.service.daemon import (AdmissionController, AdmissionPolicy,
                                  JournalStore, ServeDaemon,
                                  submit_fleets)
from repro.obs.sinks import RecordingTelemetry
from repro.obs.trace import Tracer

PROBE = "int main() { return 0; }\n"


def fleet(name: str, seeds) -> dict:
    return {"name": name,
            "programs": [{"name": name, "source": PROBE}],
            "device_seeds": list(seeds)}


@dataclass(frozen=True)
class FakeResult:
    spec: object
    ok: bool = True
    from_store: bool = False
    error: str | None = None


@dataclass(frozen=True)
class FakeBatch:
    executed: int
    hits: int = 0


class FakeScheduler:
    """Stands in for FleetScheduler: instant, order-recording."""

    def __init__(self, fail_names=(), hook=None):
        self.tracer = Tracer()
        self.batch_reports = []
        self.served = []  # display_name per job, in measure order
        self.fail_names = set(fail_names)
        self.hook = hook  # async callback before each measure returns

    async def measure(self, specs, force=False, trace_parent=None):
        results = []
        for spec in specs:
            self.served.append(spec.display_name)
            failed = spec.display_name in self.fail_names
            results.append(FakeResult(
                spec=spec, ok=not failed,
                error="boom" if failed else None))
        self.batch_reports.append(FakeBatch(executed=len(specs)))
        if self.hook is not None:
            await self.hook(specs)
        return results

    async def aclose(self):
        pass


def run_once(daemon):
    return asyncio.run(daemon.run(once=True))


class TestAdmissionController:
    def test_policy_validation(self):
        with pytest.raises(ConfigError, match="max_pending_jobs"):
            AdmissionController(AdmissionPolicy(max_pending_jobs=0))
        with pytest.raises(ConfigError, match="overflow"):
            AdmissionController(AdmissionPolicy(overflow="drop"))

    def test_watermark_defers_but_never_livelocks(self, tmp_path):
        journal = JournalStore(tmp_path)
        big = journal.submit(fleet("big", range(9)), total_jobs=9)
        controller = AdmissionController(
            AdmissionPolicy(max_pending_jobs=4))
        # larger than the watermark, but nothing pending: admit anyway
        decision = controller.decide(big, pending_jobs=0, tenant_live=0)
        assert decision.admitted
        # with work pending, the watermark holds
        decision = controller.decide(big, pending_jobs=2, tenant_live=0)
        assert decision.action == "defer"
        assert "watermark" in decision.describe()

    def test_tenant_quota_and_reject_mode(self, tmp_path):
        journal = JournalStore(tmp_path)
        record = journal.submit(fleet("a", [1]), tenant="noisy",
                                total_jobs=1)
        controller = AdmissionController(AdmissionPolicy(
            tenant_quota=2, overflow="reject", retry_after_s=7.0))
        assert controller.decide(record, pending_jobs=0,
                                 tenant_live=1).admitted
        decision = controller.decide(record, pending_jobs=0,
                                     tenant_live=2)
        assert decision.action == "reject"
        assert decision.retry_after_s == 7.0
        assert "'noisy' at quota" in decision.reason


class TestServeDaemon:
    def test_rejects_conflicting_scheduler_args(self, tmp_path):
        journal = JournalStore(tmp_path)
        with pytest.raises(ConfigError, match="not both"):
            ServeDaemon(journal, scheduler=FakeScheduler(),
                        store=ResultStore(tmp_path / "farm"))

    def test_serves_submissions_to_done(self, tmp_path):
        journal = JournalStore(tmp_path)
        submit_fleets(journal, {"fleets": [fleet("alpha", [1, 2]),
                                           fleet("beta", [3])]})
        daemon = ServeDaemon(journal, scheduler=FakeScheduler())
        report = run_once(daemon)
        assert report.admitted == 2 and report.completed == 2
        assert report.failed == 0 and report.all_ok
        assert report.executed == 3 and not report.stopped
        states = {r.fleet_name: r.state for r in journal.records()}
        assert states == {"alpha": "done", "beta": "done"}
        done = journal.records()[0]
        assert done.result["jobs"] == 2 and done.done_jobs == 2

    def test_priority_orders_dispatch(self, tmp_path):
        journal = JournalStore(tmp_path)
        for name, priority in (("low", 0), ("high", 5), ("mid", 2)):
            submit_fleets(journal, fleet(name, [1]), priority=priority)
        scheduler = FakeScheduler()
        daemon = ServeDaemon(journal, scheduler=scheduler, max_active=1)
        run_once(daemon)
        assert scheduler.served == ["high", "mid", "low"]

    def test_backpressure_bounds_pending_jobs(self, tmp_path):
        journal = JournalStore(tmp_path)
        for name in ("a", "b", "c"):
            submit_fleets(journal, fleet(name, [1, 2]))
        telemetry = RecordingTelemetry()
        daemon = ServeDaemon(
            journal, scheduler=FakeScheduler(),
            policy=AdmissionPolicy(max_pending_jobs=2),
            max_active=1)
        daemon.tracer.add_sink(telemetry)
        report = run_once(daemon)
        # every fleet still completes, but never more than the
        # watermark's worth of jobs was admitted at once
        assert report.completed == 3
        assert report.peak_pending_jobs <= 2
        assert report.deferred >= 1
        deferrals = telemetry.stages("daemon.reject")
        assert deferrals and all("defer" in e.detail for e in deferrals)

    def test_reject_mode_cancels_with_retry_after(self, tmp_path):
        journal = JournalStore(tmp_path)
        submit_fleets(journal, fleet("first", [1]), tenant="noisy")
        submit_fleets(journal, fleet("second", [2]), tenant="noisy")
        telemetry = RecordingTelemetry()
        daemon = ServeDaemon(
            journal, scheduler=FakeScheduler(),
            policy=AdmissionPolicy(tenant_quota=1, overflow="reject",
                                   retry_after_s=5.0))
        daemon.tracer.add_sink(telemetry)
        report = run_once(daemon)
        assert report.rejected == 1 and report.completed == 1
        cancelled = journal.by_state("cancelled")
        assert len(cancelled) == 1
        assert "retry after 5s" in cancelled[0].error
        rejects = telemetry.stages("daemon.reject")
        assert rejects and not rejects[0].ok

    def test_failed_jobs_fail_the_request_only(self, tmp_path):
        journal = JournalStore(tmp_path)
        submit_fleets(journal, {"fleets": [fleet("good", [1]),
                                           fleet("bad", [2])]})
        telemetry = RecordingTelemetry()
        daemon = ServeDaemon(journal,
                             scheduler=FakeScheduler(fail_names={"bad"}))
        daemon.tracer.add_sink(telemetry)
        report = run_once(daemon)
        assert report.completed == 1 and report.failed == 1
        assert not report.all_ok
        failed = journal.by_state("failed")[0]
        assert failed.fleet_name == "bad"
        assert "1 job(s) failed: bad: boom" in failed.error
        outcomes = telemetry.stages("daemon.request")
        assert sorted(e.ok for e in outcomes) == [False, True]

    def test_broken_spec_fails_terminally(self, tmp_path):
        journal = JournalStore(tmp_path)
        # journaled shape is valid, but the matrix spec is not — it
        # must fail once, not crash-loop through re-admission
        journal.submit({"name": "broken", "programs": []}, total_jobs=0)
        daemon = ServeDaemon(journal, scheduler=FakeScheduler())
        report = run_once(daemon)
        assert report.failed == 1 and report.completed == 0
        assert journal.records()[0].state == "failed"

    def test_graceful_shutdown_checkpoints_then_resumes(self, tmp_path):
        journal = JournalStore(tmp_path)
        submit_fleets(journal, fleet("alpha", [1, 2, 3]))
        telemetry = RecordingTelemetry()
        daemon = None

        async def stop_after_first_chunk(specs):
            daemon.request_shutdown()

        scheduler = FakeScheduler(hook=stop_after_first_chunk)
        daemon = ServeDaemon(journal, scheduler=scheduler,
                             checkpoint_every=1)
        daemon.tracer.add_sink(telemetry)
        report = run_once(daemon)
        assert report.stopped and report.checkpointed == 1
        leftover = journal.records()[0]
        assert leftover.state == "admitted"
        assert 1 <= leftover.done_jobs < 3
        checkpoints = telemetry.stages("daemon.checkpoint")
        assert any("journaled for resume" in e.detail
                   for e in checkpoints)
        # the request span ends at the checkpoint, and says so
        [request] = telemetry.stages("daemon.request")
        assert request.ok and "checkpointed at 1/3" in request.detail
        # a fresh daemon replays the checkpointed request to done
        resumed = RecordingTelemetry()
        daemon2 = ServeDaemon(JournalStore(tmp_path),
                              scheduler=FakeScheduler())
        daemon2.tracer.add_sink(resumed)
        report2 = run_once(daemon2)
        assert report2.resumed == 1 and report2.completed == 1
        assert resumed.stages("daemon.resume")
        assert JournalStore(tmp_path).records()[0].state == "done"

    def test_hard_crash_leftover_running_is_resumed(self, tmp_path):
        journal = JournalStore(tmp_path)
        record = submit_fleets(journal, fleet("alpha", [1]))[0]
        journal.transition(record.request_id, "admitted")
        journal.transition(record.request_id, "running", attempts=1)
        # a hard crash leaves "running" on disk; a new daemon resumes
        daemon = ServeDaemon(JournalStore(tmp_path),
                             scheduler=FakeScheduler())
        report = run_once(daemon)
        assert report.resumed == 1 and report.completed == 1
        done = JournalStore(tmp_path).records()[0]
        assert done.state == "done" and done.attempts == 2

    def test_prestop_run_exits_immediately(self, tmp_path):
        journal = JournalStore(tmp_path)
        submit_fleets(journal, fleet("alpha", [1]))
        daemon = ServeDaemon(journal, scheduler=FakeScheduler())
        daemon.request_shutdown()
        report = run_once(daemon)
        assert report.stopped and report.completed == 0
        assert journal.records()[0].state == "submitted"


class TestServeDaemonWithRealFarm:
    def test_resume_is_incremental_through_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "farm")
        journal = JournalStore(tmp_path / "journal")
        submit_fleets(journal, {"fleets": [fleet("alpha", [1, 2]),
                                           fleet("beta", [2, 3])]})
        daemon = ServeDaemon(journal, store=store, checkpoint_every=2)
        report = run_once(daemon)
        assert report.completed == 2 and report.all_ok
        # seeds overlap: 4 fleet jobs, 3 unique keys simulated
        assert report.executed == 3
        assert len(store) == 3
        # the same fleets submitted again ride the warm store
        journal2 = JournalStore(tmp_path / "journal2")
        submit_fleets(journal2, {"fleets": [fleet("alpha", [1, 2]),
                                            fleet("beta", [2, 3])]})
        daemon2 = ServeDaemon(journal2, store=ResultStore(store.root))
        report2 = run_once(daemon2)
        assert report2.completed == 2
        # zero re-simulation: every unique key is a store hit (the
        # shared seed-2 job is coalesced, so hits count unique keys)
        assert report2.executed == 0 and report2.store_hits == 3
        assert len(ResultStore(store.root)) == 3
