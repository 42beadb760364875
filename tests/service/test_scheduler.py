"""Async fleet scheduler: batching, dedup, fan-back, spans."""

import asyncio

import pytest

from repro.core import compiler_driver
from repro.errors import ConfigError, EricError
from repro.farm import (FarmJobResult, FarmReport, ResultStore,
                        SimulationFarm)
from repro.obs.sinks import RecordingTelemetry
from repro.obs.trace import Tracer
from repro.service.scheduler import (FleetRequest, FleetScheduler,
                                     load_fleet_specs)
from repro.statics import fingerprint

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
    """Stands in for the farm: every job succeeds at once.  ``batches``
    keeps the specs of every batch it ran."""

    def __init__(self):
        self.batches = []

    def run(self, specs, force=False, trace_parent=None):
        self.batches.append(specs)
        return FarmReport(
            results=tuple(FarmJobResult(spec=spec, record=None,
                                        error=None, from_store=False,
                                        wall_s=0.0) for spec in specs),
            wall_s=0.0, jobs=1, store_path=None)


@pytest.fixture
def compiles(monkeypatch):
    """Sources handed to ``compile_source`` in this process, in call
    order (forked farm workers count in their own copy)."""
    calls = []
    real = compiler_driver.compile_source

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(compiler_driver, "compile_source", counting)
    return calls


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
    def test_overlapping_fleets_execute_each_key_once(self, tmp_path,
                                                      compiles):
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
        # each executed job compiles once, in the farm; the scheduler
        # itself compiles nothing
        assert compiles == [PROBE] * 3

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
        assert scheduler.executed == 3
        assert len(store) == 3

        warm = FleetScheduler(store=ResultStore(tmp_path),
                              shards=2).run(requests)
        warm.require_ok()
        assert warm.executed == 0
        assert warm.store_hits == warm.unique_jobs == 3

    def test_staggered_fleet_attaches_to_inflight_work(self, tmp_path):
        """A fleet arriving while another's batch is queued or already
        executing still costs zero extra simulations."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
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
        executed = scheduler.executed
        hits = scheduler.store_hits
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
        assert scheduler.farm.tracer is tracer

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

    def test_construction_computes_the_model_fingerprint(self,
                                                         monkeypatch):
        # otherwise the first fleet to ask for a job key pays for it
        monkeypatch.setattr(fingerprint, "_MEMO", None)
        FleetScheduler()
        assert fingerprint._MEMO is not None

    def test_sharded_scheduling_requires_a_store(self):
        with pytest.raises(ConfigError):
            FleetScheduler(shards=2)

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
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
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
        assert scheduler.executed == 2

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
        """A direct measure drains after one event-loop yield: the
        batcher never sleeps before running a batch."""
        scheduler = FleetScheduler()
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

    def test_fleets_served_together_share_one_batch(self):
        """Fleets whose jobs queue in the same event-loop tick share one
        drain, so one serve() of several fleets is one farm batch."""
        scheduler = FleetScheduler()
        farm = scheduler.farm = InstantFarm()
        report = scheduler.run([
            FleetRequest.from_spec(probe_fleet("quick", [61])),
            FleetRequest.from_spec(probe_fleet(
                "other", [62], source="int main() { return 1; }\n")),
        ])
        report.require_ok()
        assert len(farm.batches) == 1
        assert len(farm.batches[0]) == 2

    def test_program_that_does_not_compile_fails_only_its_job(
            self, tmp_path):
        """A fleet whose program does not parse fails its own job in
        the farm; the other fleet is served and stored."""
        store = ResultStore(tmp_path)
        report = FleetScheduler(store=store).run(load_fleet_specs(
            {"fleets": [
                probe_fleet("good", [71]),
                probe_fleet("broken", [71],
                            source="int main() { return 0 }\n"),
            ]}))
        good, broken = report.fleets
        assert good.ok and not broken.ok
        [failure] = broken.failures
        assert "ParseError" in failure.error
        assert len(good.records) == 1
        assert len(store) == 1
        assert good.results[0].spec.key() in store

    def test_force_is_isolated_per_request(self, tmp_path):
        """A forced request re-measures without attaching to un-forced
        work — and without dragging un-forced jobs into the re-measure."""
        scheduler = FleetScheduler(store=ResultStore(tmp_path))
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
        executed = scheduler.executed
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
        # one hook observes the whole stack: farm stages too
        assert recorder.stages("farm.job")

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

    def test_fully_warm_serve_compiles_nothing(self, tmp_path,
                                               compiles):
        """Warm resume costs ~nothing: with every job already stored,
        a fresh scheduler neither simulates nor compiles."""
        requests = load_fleet_specs(
            {"fleets": [probe_fleet("a", [1, 2])]})
        FleetScheduler(store=ResultStore(tmp_path)) \
            .run(requests).require_ok()
        assert len(compiles) == 2
        compiles.clear()
        warm = FleetScheduler(store=ResultStore(tmp_path)).run(requests)
        warm.require_ok()
        assert warm.executed == 0
        assert compiles == []
        # forcing re-measures, and each re-measured job compiles once
        forced = FleetScheduler(store=ResultStore(tmp_path)) \
            .run(requests, force=True)
        forced.require_ok()
        assert forced.executed == 2
        assert len(compiles) == 2

    def test_parallel_serve_compiles_nothing_in_this_process(
            self, tmp_path, compiles):
        """With worker processes every compile happens in a worker: the
        serving process compiles nothing at all."""
        report = FleetScheduler(store=ResultStore(tmp_path), jobs=2).run(
            load_fleet_specs({"fleets": [probe_fleet("a", [1, 2])]}))
        report.require_ok()
        assert report.executed == 2
        assert compiles == []
