"""Async fleet scheduler: single-flight, batching, fan-back, spans."""

import asyncio

import pytest

from repro.core.device import Device
from repro.errors import ConfigError, EricError, ProvisioningError
from repro.farm import (FarmJobResult, FarmReport, ResultStore,
                        SimulationFarm)
from repro.obs.sinks import RecordingTelemetry
from repro.obs.trace import Tracer
from repro.service.scheduler import (AsyncDeploymentSession,
                                     AsyncSingleFlight, FleetRequest,
                                     FleetScheduler, load_fleet_specs)
from repro.service.session import DeploymentSession

PROBE = "int main() { return 0; }\n"


def probe_fleet(name: str, seeds, source: str = PROBE) -> dict:
    return {"name": name,
            "programs": [{"name": "probe", "source": source}],
            "device_seeds": list(seeds)}


class ExplodingFarm:
    """Stands in for the farm: every batch raises."""

    def run(self, specs, force=False, trace_parent=None):
        raise RuntimeError("store melted")


class InstantFarm:
    """Stands in for the farm: every job succeeds at once."""

    def run(self, specs, force=False, trace_parent=None):
        return FarmReport(
            results=tuple(FarmJobResult(spec=spec, record=None,
                                        error=None, from_store=False,
                                        wall_s=0.0) for spec in specs),
            wall_s=0.0, jobs=1, store_path=None)


class TestAsyncSingleFlight:
    def test_concurrent_runs_coalesce(self):
        flight = AsyncSingleFlight()
        builds = []

        async def build():
            builds.append(1)
            await asyncio.sleep(0.01)
            return "artifact"

        async def go():
            results = await asyncio.gather(
                *(flight.run("key", build) for _ in range(5)))
            return results

        assert asyncio.run(go()) == ["artifact"] * 5
        assert len(builds) == 1

    def test_cancelled_waiter_does_not_poison_the_build(self):
        flight = AsyncSingleFlight()
        builds = []

        async def build():
            builds.append(1)
            await asyncio.sleep(0.05)
            return "artifact"

        async def go():
            first = asyncio.ensure_future(flight.run("key", build))
            await asyncio.sleep(0.01)
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            # the build survived its only waiter's cancellation: a new
            # waiter attaches to the same in-flight task
            return await flight.run("key", build)

        assert asyncio.run(go()) == "artifact"
        assert len(builds) == 1

    def test_failed_build_retires_and_retries(self):
        flight = AsyncSingleFlight()
        attempts = []

        async def build():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return "artifact"

        async def go():
            with pytest.raises(RuntimeError):
                await flight.run("key", build)
            return await flight.run("key", build)

        assert asyncio.run(go()) == "artifact"
        assert len(attempts) == 2


class TestAsyncDeploymentSession:
    def test_fleet_matches_sync_contract(self):
        session = DeploymentSession()
        async_session = AsyncDeploymentSession(session)
        devices = [Device(device_seed=0x8800 + i) for i in range(4)]

        async def go():
            try:
                return await async_session.deploy_fleet(
                    PROBE, devices, name="probe")
            finally:
                await async_session.aclose()

        report = asyncio.run(go())
        assert report.all_ok
        assert report.device_count == 4
        assert not report.cache_hit
        assert session.cache_stats.compiles == 1
        assert {o.device_id for o in report.outcomes} \
            == {d.device_id for d in devices}
        # the aggregation is the shared build_fleet_report: compile
        # paid once, encryption accounted per device
        assert report.compile_s > 0
        assert report.encryption_s > 0

    def test_concurrent_prepares_compile_once(self):
        async_session = AsyncDeploymentSession(DeploymentSession())

        async def go():
            try:
                artifacts = await asyncio.gather(
                    *(async_session.prepare(PROBE, "probe")
                      for _ in range(6)))
                return artifacts
            finally:
                await async_session.aclose()

        artifacts = asyncio.run(go())
        assert len({id(a) for a in artifacts}) == 1
        assert async_session.cache_stats.compiles == 1

    def test_empty_fleet_rejected(self):
        async_session = AsyncDeploymentSession(DeploymentSession())
        with pytest.raises(ProvisioningError):
            asyncio.run(async_session.deploy_fleet(PROBE, []))

    def test_session_and_config_are_exclusive(self):
        from repro.core.config import EricConfig
        with pytest.raises(ConfigError):
            AsyncDeploymentSession(DeploymentSession(),
                                   config=EricConfig())

    def test_max_concurrency_validated(self):
        with pytest.raises(ConfigError):
            AsyncDeploymentSession(max_concurrency=0)


class TestFleetSpecs:
    def test_entry_requires_a_name(self):
        with pytest.raises(ConfigError):
            FleetRequest.from_spec({"workloads": ["crc32"]})

    def test_fleets_key_required_and_non_empty(self):
        with pytest.raises(ConfigError):
            load_fleet_specs({"fleets": []})
        with pytest.raises(ConfigError):
            load_fleet_specs({"fleet": [probe_fleet("a", [1])]})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            load_fleet_specs({"fleets": [probe_fleet("a", [1]),
                                         probe_fleet("a", [2])]})

    def test_round_trip(self):
        requests = load_fleet_specs(
            {"fleets": [probe_fleet("a", [1, 2])]})
        assert len(requests) == 1
        assert requests[0].name == "a"
        assert len(requests[0].jobs) == 2


class TestFleetScheduler:
    def test_overlapping_fleets_execute_each_key_once(self, tmp_path):
        requests = load_fleet_specs({"fleets": [
            probe_fleet("alpha", [1, 2]),
            probe_fleet("beta", [2, 3]),
        ]})
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        report = scheduler.run(requests)
        report.require_ok()
        assert report.requested == 4
        assert report.unique_jobs == 3
        assert report.executed == 3
        assert report.cache_stats.compiles == 1

    def test_sharded_scheduler_executes_each_key_once(self, tmp_path):
        """Overlapping fleets over a sharded farm: every unique key is
        executed once in some shard, and a warm rerun executes none."""
        requests = load_fleet_specs({"fleets": [
            probe_fleet("alpha", [1, 2]),
            probe_fleet("beta", [2, 3]),
        ]})
        store = ResultStore(tmp_path)
        scheduler = FleetScheduler(store=store, shards=2)
        cold = scheduler.run(requests)
        cold.require_ok()
        assert cold.requested == 4
        assert cold.unique_jobs == 3
        assert cold.executed == 3
        assert sum(batch.executed
                   for batch in scheduler.batch_reports) == 3
        assert len(store) == 3

        warm = FleetScheduler(store=ResultStore(tmp_path),
                              shards=2).run(requests)
        warm.require_ok()
        assert warm.executed == 0
        assert warm.store_hits == warm.unique_jobs == 3

    def test_staggered_fleet_attaches_to_inflight_work(self, tmp_path):
        """A fleet arriving while another's batch is queued or already
        executing still costs zero extra simulations."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path),
                                   batch_window=0.0)
        first = FleetRequest.from_spec(probe_fleet("first", [1, 2]))
        second = FleetRequest.from_spec(probe_fleet("second", [2, 3]))

        async def go():
            try:
                task1 = asyncio.ensure_future(
                    scheduler.deploy_fleet(first))
                # land mid-flight: first's batch is queued or executing
                await asyncio.sleep(0.05)
                task2 = asyncio.ensure_future(
                    scheduler.deploy_fleet(second))
                return await asyncio.gather(task1, task2)
            finally:
                await scheduler.aclose()

        fleet1, fleet2 = asyncio.run(go())
        fleet1.require_ok()
        fleet2.require_ok()
        executed = sum(batch.executed
                       for batch in scheduler.batch_reports)
        hits = sum(batch.hits for batch in scheduler.batch_reports)
        # 3 unique keys total: every one simulated exactly once, the
        # overlap served from the in-flight future or the store
        assert executed == 3
        assert executed + hits <= 4

    def test_cancelled_fleet_leaves_shared_jobs_intact(self, tmp_path):
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        request = FleetRequest.from_spec(probe_fleet("shared", [5]))

        async def go():
            try:
                doomed = asyncio.ensure_future(
                    scheduler.deploy_fleet(request))
                survivor = asyncio.ensure_future(
                    scheduler.deploy_fleet(request))
                await asyncio.sleep(0.01)
                doomed.cancel()
                report = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return report
            finally:
                await scheduler.aclose()

        report = asyncio.run(go())
        report.require_ok()
        assert len(report.results) == 1

    def test_batch_failure_fans_back_and_batcher_survives(self, tmp_path):
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        request = FleetRequest.from_spec(probe_fleet("doomed", [7]))
        real_farm = scheduler.farm
        scheduler.farm = ExplodingFarm()

        async def go():
            try:
                with pytest.raises(EricError, match="store melted"):
                    await scheduler.deploy_fleet(request)
                # the batcher outlives a failed batch: restore the real
                # farm and the same scheduler serves the fleet
                scheduler.farm = real_farm
                return await scheduler.deploy_fleet(request)
            finally:
                await scheduler.aclose()

        report = asyncio.run(go())
        report.require_ok()

    def test_failed_batch_reaches_sinks(self, tmp_path):
        """A farm batch that raises fails its ``scheduler.batch`` span
        and the fleet's ``scheduler.fleet`` span, and sinks see both:
        no fleet is narrated as begun and never ended."""
        recorder = RecordingTelemetry()
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        scheduler.tracer.add_sink(recorder)
        scheduler.farm = ExplodingFarm()
        request = FleetRequest.from_spec(probe_fleet("doomed", [7]))

        async def go():
            try:
                with pytest.raises(EricError,
                                   match="farm batch of 1 job"):
                    await scheduler.deploy_fleet(request)
            finally:
                await scheduler.aclose()

        asyncio.run(go())
        [batch] = recorder.stages("scheduler.batch")
        assert not batch.ok and "store melted" in batch.detail
        [fleet] = recorder.stages("scheduler.fleet")
        assert not fleet.ok and fleet.attrs["fleet"] == "doomed"

    def test_one_tracer_is_shared_with_session_and_farm(self):
        tracer = Tracer()
        scheduler = FleetScheduler(tracer=tracer)
        assert scheduler.tracer is tracer
        assert scheduler.async_session.session.tracer is tracer
        assert scheduler.farm.tracer is tracer
        # an explicit session brings its own tracer
        session = DeploymentSession()
        assert FleetScheduler(session=session).tracer is session.tracer
        with pytest.raises(ConfigError, match="not both"):
            FleetScheduler(session=session, tracer=tracer)

    def test_invalid_spec_does_not_poison_the_queue(self):
        """A spec failing validation raises before any shared state is
        touched: the same key measured later must not deadlock on an
        orphaned in-flight future."""
        from repro.farm import JobSpec

        scheduler = FleetScheduler()
        bad = JobSpec(workload="crc32", repeats=0)
        good = JobSpec(workload="crc32", simulate=False)

        async def go():
            try:
                with pytest.raises(ConfigError):
                    await scheduler.measure([bad])
                # the same invalid spec again: must raise again, not
                # hang on a future the first call left behind
                with pytest.raises(ConfigError):
                    await asyncio.wait_for(scheduler.measure([bad]),
                                           timeout=30)
                # and a mixed batch fails whole, stranding nothing
                with pytest.raises(ConfigError):
                    await scheduler.measure([good, bad])
                return await asyncio.wait_for(
                    scheduler.measure([good]), timeout=30)
            finally:
                await scheduler.aclose()

        results = asyncio.run(go())
        assert results[0].ok

    def test_serve_requires_fleets(self, tmp_path):
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        with pytest.raises(ConfigError):
            scheduler.run([])

    def test_sharded_scheduling_requires_a_store(self):
        with pytest.raises(ConfigError):
            FleetScheduler(shards=2)

    def test_negative_batch_window_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            FleetScheduler(store=ResultStore(tmp_path),
                           batch_window=-1.0)

    def test_storeless_scheduler_measures_in_memory(self):
        scheduler = FleetScheduler()
        assert isinstance(scheduler.farm, SimulationFarm)
        report = scheduler.run(
            [FleetRequest.from_spec(probe_fleet("mem", [11]))])
        report.require_ok()
        assert report.store_path is None
        assert report.executed == 1

    def test_storeless_exactly_once_across_batches(self):
        """Without a store, a key resolved by an earlier batch must be
        served from the scheduler's memo, never re-simulated."""
        scheduler = FleetScheduler()
        requests = load_fleet_specs(
            {"fleets": [probe_fleet("mem", [11, 12])]})
        cold = scheduler.run(requests)
        again = scheduler.run(requests)
        cold.require_ok()
        again.require_ok()
        assert cold.executed == 2
        # the second serve lands in fresh batches (or none at all),
        # but executes nothing: the memo stands in for the store
        assert again.executed == 0, again.summary()
        assert [r.record.eric_cycles for f in again.fleets
                for r in f.results] \
            == [r.record.eric_cycles for f in cold.fleets
                for r in f.results]

    def test_concurrent_serves_account_only_their_own_keys(self,
                                                           tmp_path):
        """Two serve() calls sharing one batch must not double-count
        the shared work: each report's executed stays bounded by its
        own unique_jobs."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path),
                                   batch_window=0.05)
        shared = probe_fleet("a", [31])
        other = probe_fleet("b", [31, 32])

        async def go():
            try:
                return await asyncio.gather(
                    scheduler.serve([FleetRequest.from_spec(shared)]),
                    scheduler.serve([FleetRequest.from_spec(other)]))
            finally:
                await scheduler.aclose()

        report_a, report_b = asyncio.run(go())
        report_a.require_ok()
        report_b.require_ok()
        for report in (report_a, report_b):
            assert report.executed <= report.unique_jobs, \
                report.summary()
        # the actual work was deduped: 2 unique keys, 2 simulations
        assert sum(b.executed for b in scheduler.batch_reports) == 2

    def test_storeless_memo_does_not_cache_failures(self):
        """Without a store, a failed job must retry on the next request
        (parity with the store-backed path); only ok outcomes memoize."""
        calls = []

        class FlakyFarm:
            def run(self, specs, force=False, trace_parent=None):
                calls.append(len(specs))
                error = "flaky" if len(calls) == 1 else None
                results = tuple(
                    FarmJobResult(spec=spec, record=None, error=error,
                                  from_store=False, wall_s=0.0)
                    for spec in specs)
                return FarmReport(results=results, wall_s=0.0, jobs=1,
                                  store_path=None)

        scheduler = FleetScheduler()
        scheduler.farm = FlakyFarm()
        spec = FleetRequest.from_spec(probe_fleet("flaky", [41])).jobs[0]

        async def go():
            try:
                first = await scheduler.measure([spec])
                second = await scheduler.measure([spec])
                third = await scheduler.measure([spec])
                return first[0], second[0], third[0]
            finally:
                await scheduler.aclose()

        first, second, third = asyncio.run(go())
        assert not first.ok
        assert second.ok and third.ok
        # exactly one retry: the failure was not memoized, the ok
        # outcome was
        assert calls == [1, 1]

    def test_direct_measure_does_not_wait_out_the_window(self):
        """With no fleet preparing there is nothing to wait for: the
        batch window caps a linger, it is not a sleep."""
        scheduler = FleetScheduler(batch_window=3600)
        scheduler.farm = InstantFarm()
        spec = FleetRequest.from_spec(probe_fleet("direct", [51])).jobs[0]

        async def go():
            try:
                return await asyncio.wait_for(scheduler.measure([spec]),
                                              30)
            finally:
                await scheduler.aclose()

        (result,) = asyncio.run(go())
        assert result.ok

    def test_batch_waits_for_a_fleet_still_preparing(self):
        """A fleet still compiling when another fleet's jobs are queued
        holds the drain (up to the window), so both share one batch."""
        scheduler = FleetScheduler(batch_window=1.0)
        scheduler.farm = InstantFarm()
        slow_source = "int main() { return 1; }\n"
        quick = FleetRequest.from_spec(probe_fleet("quick", [61]))
        slow = FleetRequest.from_spec(
            probe_fleet("slow", [62], source=slow_source))

        async def go():
            loop = asyncio.get_running_loop()
            release = asyncio.Event()

            async def prepare(source, name, config):
                if source == slow_source:
                    await release.wait()
                else:   # quick queues its jobs right after this
                    loop.call_later(0.1, release.set)

            scheduler.async_session.prepare = prepare
            try:
                return await asyncio.wait_for(asyncio.gather(
                    scheduler.deploy_fleet(quick),
                    scheduler.deploy_fleet(slow)), 30)
            finally:
                await scheduler.aclose()

        for report in asyncio.run(go()):
            report.require_ok()
        assert len(scheduler.batch_reports) == 1
        assert len(scheduler.batch_reports[0].results) == 2

    def test_force_is_isolated_per_request(self, tmp_path):
        """A forced request re-measures without attaching to un-forced
        work — and without dragging un-forced jobs into the re-measure."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path),
                                   batch_window=0.05)
        request = FleetRequest.from_spec(probe_fleet("shared", [21]))
        spec = request.jobs[0]
        # cold: the key lands in the store
        scheduler.run([request]).require_ok()

        async def go():
            try:
                plain, forced = await asyncio.gather(
                    scheduler.measure([spec], force=False),
                    scheduler.measure([spec], force=True))
                return plain[0], forced[0]
            finally:
                await scheduler.aclose()

        plain, forced = asyncio.run(go())
        # the un-forced request is a store hit; the forced one really
        # re-measured (it must not be served the stale record)
        assert plain.ok and plain.from_store
        assert forced.ok and not forced.from_store and not forced.shared
        executed = sum(b.executed for b in scheduler.batch_reports)
        assert executed == 2  # one cold measure + one forced re-measure

    def test_telemetry_spans(self, tmp_path):
        recorder = RecordingTelemetry()
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        scheduler.tracer.add_sink(recorder)
        report = scheduler.run(load_fleet_specs({"fleets": [
            probe_fleet("alpha", [1]),
            probe_fleet("beta", [1, 2]),
        ]}))
        report.require_ok()
        begins = recorder.stages("scheduler.fleet.begin")
        ends = recorder.stages("scheduler.fleet")
        assert {e.attrs["fleet"] for e in begins} == {"alpha", "beta"}
        assert {e.attrs["fleet"] for e in ends} == {"alpha", "beta"}
        # spans nest: every begin precedes its fleet's end
        order = [(e.name, e.attrs["fleet"]) for e in recorder.events
                 if e.name.startswith("scheduler.fleet")]
        for name in ("alpha", "beta"):
            assert order.index(("scheduler.fleet.begin", name)) \
                < order.index(("scheduler.fleet", name))
        assert recorder.stages("scheduler.batch")
        assert recorder.stages("scheduler.serve")
        # one hook observes the whole stack: farm + session stages too
        assert recorder.stages("farm.job")
        assert recorder.stages("compile")

    def test_warm_rerun_reuses_the_scheduler(self, tmp_path):
        """The same scheduler instance serves sequential asyncio.run
        loops (per-loop primitives are re-created)."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
        requests = load_fleet_specs(
            {"fleets": [probe_fleet("alpha", [1, 2])]})
        cold = scheduler.run(requests)
        warm = scheduler.run(requests)
        cold.require_ok()
        warm.require_ok()
        assert cold.executed == 2
        assert warm.executed == 0
        assert warm.store_hits == 2

    def test_fully_warm_serve_compiles_nothing(self, tmp_path):
        """Warm resume costs ~nothing: with every job already stored,
        a fresh scheduler neither simulates nor compiles."""
        requests = load_fleet_specs(
            {"fleets": [probe_fleet("a", [1, 2])]})
        FleetScheduler(store=ResultStore(tmp_path)) \
            .run(requests).require_ok()
        warm = FleetScheduler(store=ResultStore(tmp_path)).run(requests)
        warm.require_ok()
        assert warm.executed == 0
        assert warm.cache_stats.compiles == 0
        # forcing re-measures — and therefore warms artifacts again
        forced = FleetScheduler(store=ResultStore(tmp_path)) \
            .run(requests, force=True)
        forced.require_ok()
        assert forced.executed == 2
        assert forced.cache_stats.compiles == 1
