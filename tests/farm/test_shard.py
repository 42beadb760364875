"""Distributed farm: shard planning, worker execution, store merging."""

import json

import pytest

from repro.core.config import EncryptionMode, EricConfig
from repro.errors import ConfigError, EricError
from repro.farm import (JobMatrix, JobSpec, ResultStore, ShardPlan,
                        ShardSpec, SimParams, SimulationFarm, load_shard,
                        run_shard)
from repro.farm import coordinator as coordinator_module
from repro.puf.environment import Environment

HELLO = 'int main() { print_int(41); print_char(10); return 0; }\n'
GOODBYE = 'int main() { print_int(13); print_char(10); return 0; }\n'
BROKEN = "int main( {"

#: 2 programs x 2 configs, packaging-only: fast enough to shard in tests
MATRIX = JobMatrix(
    programs=(("hello", HELLO), ("goodbye", GOODBYE)),
    configs=(EricConfig(), EricConfig(mode=EncryptionMode.PARTIAL)),
    simulate=False,
)


class TestJobSpecSerialization:
    def test_round_trip_is_key_identical(self):
        spec = JobSpec(
            source=HELLO, name="hello",
            config=EricConfig(mode=EncryptionMode.PARTIAL,
                              partial_fraction=0.25),
            params=SimParams(device_seed=0xBEEF, pipeline="slow-memory",
                             environment=Environment(temperature_c=85.0),
                             overlapped_hde=True, puf_votes=5),
            simulate=False, analyze=True, repeats=2)
        revived = JobSpec.from_dict(spec.to_dict())
        assert revived == spec
        assert revived.key() == spec.key()

    def test_round_trip_survives_json(self):
        spec = JobSpec(workload="crc32")
        revived = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert revived.key() == spec.key()

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ConfigError):
            JobSpec.from_dict({"workload": "crc32", "banana": 1})
        with pytest.raises(ConfigError):
            JobSpec.from_dict("not a dict")
        with pytest.raises(ConfigError):
            JobSpec.from_dict({"workload": "crc32",
                               "params": {"warp_drive": True}})
        with pytest.raises(ConfigError):
            JobSpec.from_dict({})  # neither workload nor source


class TestShardPlan:
    def test_partition_is_contiguous_and_covers_the_key_space(self):
        plan = ShardPlan.partition(MATRIX, shards=3)
        keys = sorted(j.key() for j in MATRIX.jobs())
        planned = [job.key() for shard in plan.shards
                   for job in shard.jobs]
        assert planned == keys  # sorted, deduplicated, complete
        for shard in plan.shards:
            shard_keys = [j.key() for j in shard.jobs]
            assert shard.start == shard_keys[0]
            assert shard.stop == shard_keys[-1]
        # ranges are disjoint and ordered
        for left, right in zip(plan.shards, plan.shards[1:]):
            assert left.stop < right.start

    def test_partition_is_stable_across_runs(self):
        a = ShardPlan.partition(MATRIX, shards=2)
        b = ShardPlan.partition(MATRIX, shards=2)
        assert [s.to_spec() for s in a.shards] \
            == [s.to_spec() for s in b.shards]

    def test_partition_is_near_even(self):
        plan = ShardPlan.partition(MATRIX, shards=3)  # 4 keys over 3
        sizes = [len(s.jobs) for s in plan.shards]
        assert sorted(sizes) == [1, 1, 2]
        assert sizes[0] == 2  # the remainder lands on the first shards

    def test_partition_deduplicates_and_never_yields_empty_shards(self):
        specs = [JobSpec(source=HELLO, name="a", simulate=False),
                 JobSpec(source=HELLO, name="b", simulate=False)]
        plan = ShardPlan.partition(specs, shards=8)
        assert plan.count == 1  # one unique key -> one shard
        assert plan.job_count == 1

    def test_partition_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            ShardPlan.partition(MATRIX, shards=0)
        with pytest.raises(ConfigError):
            ShardPlan.partition([], shards=2)


class TestShardSpecSerialization:
    def test_json_round_trip(self):
        [shard] = ShardPlan.partition(MATRIX, shards=1).shards
        revived = ShardSpec.from_spec(
            json.loads(json.dumps(shard.to_spec())))
        assert revived == shard

    def test_rejects_wrong_key_schema(self, monkeypatch):
        """A shard planned under another KEY_SCHEMA must be refused —
        its key ranges no longer address what this code measures."""
        from repro.farm import spec as spec_module

        [shard] = ShardPlan.partition(MATRIX, shards=1).shards
        data = shard.to_spec()
        monkeypatch.setattr(spec_module, "KEY_SCHEMA",
                            spec_module.KEY_SCHEMA + 1)
        with pytest.raises(ConfigError, match="KEY_SCHEMA"):
            ShardSpec.from_spec(data)

    def test_rejects_keys_outside_the_declared_range(self):
        shard = ShardPlan.partition(MATRIX, shards=2).shards[0]
        data = shard.to_spec()
        # graft in a job whose key falls outside this shard's range
        foreign = ShardPlan.partition(MATRIX, shards=2).shards[1]
        data["jobs"].append(foreign.to_spec()["jobs"][-1])
        with pytest.raises(ConfigError, match="different code version"):
            ShardSpec.from_spec(data)

    def test_rejects_junk(self):
        with pytest.raises(ConfigError, match="not a shard spec"):
            ShardSpec.from_spec({"kind": "grocery-list"})
        [shard] = ShardPlan.partition(MATRIX, shards=1).shards
        data = shard.to_spec()
        del data["stop"]
        with pytest.raises(ConfigError, match="misses"):
            ShardSpec.from_spec(data)

    def test_rejects_mistyped_fields_with_config_errors(self):
        """A hand-edited shard.json must fail through the curated
        ConfigError path (-> `eric: error:`), never a raw TypeError."""
        [shard] = ShardPlan.partition(MATRIX, shards=1).shards
        for field, bad in [("index", "0"), ("count", None),
                           ("count", True), ("start", 7), ("stop", [])]:
            data = shard.to_spec()
            data[field] = bad
            with pytest.raises(ConfigError, match=f"shard {field}"):
                ShardSpec.from_spec(data)


class TestWorker:
    def test_load_and_run_shard(self, tmp_path):
        [shard] = ShardPlan.partition(MATRIX, shards=1).shards
        path = tmp_path / "shard.json"
        path.write_text(json.dumps(shard.to_spec()))
        loaded = load_shard(path)
        assert loaded == shard

        report = run_shard(loaded, tmp_path / "store")
        report.require_ok()
        assert report.executed == 4
        # the shard store is itself resumable
        resumed = run_shard(loaded, tmp_path / "store")
        assert resumed.executed == 0 and resumed.hit_rate == 1.0

    def test_load_shard_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "shard.json"
        path.write_text("{nope")
        with pytest.raises(EricError, match="not valid JSON"):
            load_shard(path)


@pytest.fixture
def dispatched(monkeypatch):
    """Every :class:`ShardPlan` a sharded farm dispatches, in order."""
    plans = []
    real_dispatch = coordinator_module.dispatch_shards

    def spy(plan, *args):
        plans.append(plan)
        return real_dispatch(plan, *args)

    monkeypatch.setattr(coordinator_module, "dispatch_shards", spy)
    return plans


class TestCoordinator:
    """A farm built with ``shards`` dispatches its pending jobs as
    per-shard worker farms and merges their stores back."""

    def test_sharded_records_match_unsharded(self, tmp_path):
        """The acceptance criterion: a sharded sweep's records are
        byte-identical (modulo wall-clock fields) to a jobs=1 sweep of
        the same matrix, and the merged store then serves an unsharded
        resume with zero simulations."""
        reference = SimulationFarm(
            store=ResultStore(tmp_path / "ref")).run(MATRIX)
        reference.require_ok()

        farm = SimulationFarm(store=ResultStore(tmp_path / "main"),
                              shards=2)
        report = farm.run(MATRIX)
        report.require_ok()
        assert report.executed == 4 and report.hits == 0
        assert report.shards == 2
        assert "shards=2" in report.summary()
        assert {r.key: r.stable_dict() for r in report.records} \
            == {r.key: r.stable_dict() for r in reference.records}
        assert [stats.merged for stats in farm.last_merge] == [2, 2]

        resumed = SimulationFarm(
            store=ResultStore(tmp_path / "main")).run(MATRIX)
        assert resumed.executed == 0
        assert resumed.hit_rate == 1.0

    def test_warm_main_store_dispatches_nothing(self, tmp_path,
                                                dispatched):
        store = ResultStore(tmp_path)
        farm = SimulationFarm(store=store, shards=2)
        farm.run(MATRIX)
        assert [plan.count for plan in dispatched] == [2]
        again = farm.run(MATRIX)
        assert again.executed == 0 and again.hit_rate == 1.0
        assert [plan.count for plan in dispatched] == [2]
        assert farm.last_merge == ()

    def test_partial_resume_shards_only_the_missing_keys(self, tmp_path,
                                                         dispatched):
        store = ResultStore(tmp_path)
        half = JobMatrix(programs=(("hello", HELLO),),
                         configs=MATRIX.configs, simulate=False)
        SimulationFarm(store=store).run(half)

        farm = SimulationFarm(store=store, shards=2)
        report = farm.run(MATRIX)
        [plan] = dispatched
        assert plan.job_count == 2
        assert report.hits == 2
        assert report.executed == 2

    def test_failures_carry_worker_tracebacks(self, tmp_path):
        farm = SimulationFarm(store=ResultStore(tmp_path), shards=2)
        report = farm.run([
            JobSpec(source=BROKEN, name="broken", simulate=False),
            JobSpec(source=HELLO, name="hello", simulate=False),
        ])
        assert report.executed == 1
        [failure] = report.failures
        assert failure.spec.display_name == "broken"
        assert "ParseError" in failure.error
        # the trimmed traceback crossed the process boundary
        assert "[at " in failure.error
        with pytest.raises(EricError, match="broken"):
            report.require_ok()
        # the good job's record still merged into the main store
        assert len(ResultStore(tmp_path)) == 1

    def test_duplicate_keys_share_one_shard_slot(self, tmp_path):
        farm = SimulationFarm(store=ResultStore(tmp_path), shards=2)
        report = farm.run([
            JobSpec(source=HELLO, name="a", simulate=False),
            JobSpec(source=HELLO, name="b", simulate=False),
        ])
        report.require_ok()
        assert report.executed == 1
        assert len(report.records) == 2
        assert report.records[0].key == report.records[1].key

    def test_crashed_coordinator_resumes_from_shard_stores(self, tmp_path):
        """If the sharded farm dies after workers finish but before the
        merge, a re-run serves the shard stores' records as hits
        instead of re-simulating."""
        first = SimulationFarm(store=ResultStore(tmp_path / "a"),
                               shards=2, shard_root=tmp_path / "shards")
        first.run(MATRIX)
        # model the crash: a fresh main store, same shard root
        second = SimulationFarm(store=ResultStore(tmp_path / "b"),
                                shards=2, shard_root=tmp_path / "shards")
        report = second.run(MATRIX)
        report.require_ok()
        assert report.executed == 0
        assert report.hits == 4  # all served from warm shard stores
        assert len(ResultStore(tmp_path / "b")) == 4

    def test_reused_shard_dirs_cannot_resurrect_stale_records(
            self, tmp_path):
        """Regression: merge_from used to adopt a reused shard store
        wholesale, so leftover records from an earlier run (stale
        relative to a later --force re-measure) would win over fresher
        main-store data.  Merges are now restricted to each shard's
        planned keys."""
        from dataclasses import replace

        main = ResultStore(tmp_path / "main")
        # a fresher main-store record whose key is NOT in this run's
        # plan, plus a stale twin lurking in the reused shard-00 dir
        fresh = replace(
            SimulationFarm().run(
                [JobSpec(source=HELLO, name="other", simulate=False,
                         analyze=True)]).records[0])
        main.put(fresh)
        stale = replace(fresh, package_size=fresh.package_size + 999)
        ResultStore(tmp_path / "shards" / "shard-00").put(stale)

        farm = SimulationFarm(store=main, shards=2,
                              shard_root=tmp_path / "shards")
        report = farm.run(MATRIX)
        report.require_ok()
        assert main.get(fresh.key).package_size == fresh.package_size
        assert sum(stats.ignored for stats in farm.last_merge) == 1
        assert "out-of-plan" in farm.last_merge[0].describe()

    def test_shard_dirs_hold_only_the_last_runs_work(self, tmp_path):
        """Regression: every sharded run reused shard-NN/ without
        pruning it, so each shard store kept every record it ever
        measured and each run appended all earlier runs' shard spans
        to the main trace again (10/28/54 lines for 3 equal runs)."""
        from repro.obs.trace import TRACE_FILENAME, Tracer

        store = ResultStore(tmp_path / "main")
        farm = SimulationFarm(store=store, shards=2,
                              tracer=Tracer(store.root))
        trace = store.root / TRACE_FILENAME
        trace_lines = []
        for run in range(3):
            # 4 keys no earlier run measured
            matrix = JobMatrix(
                programs=tuple(
                    (f"p{run}{i}",
                     f"int main() {{ return {10 * run + i}; }}\n")
                    for i in range(4)),
                simulate=False)
            farm.run(matrix).require_ok()
            trace_lines.append(len(trace.read_text().splitlines()))
        assert len(store) == 12
        plan = ShardPlan.partition(matrix, 2)
        for shard in plan.shards:
            shard_dir = store.root / "shards" / f"shard-{shard.index:02d}"
            assert ResultStore(shard_dir).keys() \
                == {job.key() for job in shard.jobs}
            assert not (shard_dir / TRACE_FILENAME).exists()
        assert trace_lines == [trace_lines[0] * n for n in (1, 2, 3)]

    def test_worker_death_spares_already_completed_jobs(self, tmp_path,
                                                        monkeypatch):
        """Regression: a dying worker's fabricated 'worker died' error
        used to fail every job of its shard, including jobs whose
        records had already been persisted and merged."""
        from repro.farm import ShardOutcome

        farm = SimulationFarm(store=ResultStore(tmp_path / "main"),
                              shards=2, shard_root=tmp_path / "shards")
        real_dispatch = coordinator_module.dispatch_shards

        def dying_dispatch(plan, *args):
            # workers complete and persist normally, but shard 0's
            # outcome is lost as if its process died at the very end
            outcomes = real_dispatch(plan, *args)
            return [
                outcome if outcome.index != 0 else ShardOutcome(
                    index=0, store_dir=outcome.store_dir, executed=0,
                    hit_keys=(),
                    failures=tuple(
                        (job.key(), "shard 0 worker died: boom")
                        for job in plan.shards[0].jobs),
                    wall_s=0.0)
                for outcome in outcomes]

        monkeypatch.setattr(coordinator_module, "dispatch_shards",
                            dying_dispatch)
        report = farm.run(MATRIX)
        # every record merged, so no job may be reported as failed
        report.require_ok()
        assert len(report.records) == 4
        assert len(ResultStore(tmp_path / "main")) == 4

        # under --force the record may predate the re-measure, so the
        # worker death must surface as a failure there
        forced = farm.run(MATRIX, force=True)
        assert len(forced.failures) == 2
        assert all("worker died" in f.error for f in forced.failures)
        # the farm invariant: a failed slot carries no record
        assert all(f.record is None for f in forced.failures)

    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ConfigError, match="main store"):
            SimulationFarm(store=None, shards=2)
        with pytest.raises(ConfigError):
            SimulationFarm(store=ResultStore(tmp_path), shards=-1)
        with pytest.raises(ConfigError):
            SimulationFarm(store=ResultStore(tmp_path), shards=2, jobs=0)
        with pytest.raises(ConfigError):
            SimulationFarm(store=ResultStore(tmp_path), shards=2).run([])

    def test_telemetry_and_progress(self, tmp_path):
        from repro.obs.sinks import RecordingTelemetry

        sink = RecordingTelemetry()
        seen = []
        farm = SimulationFarm(
            store=ResultStore(tmp_path), shards=2,
            progress=lambda done, total, result:
                seen.append((done, total, result.from_store)))
        farm.tracer.add_sink(sink)
        farm.run(MATRIX)
        assert len(sink.stages("farm.shard")) == 2
        [sweep] = sink.stages("farm.sweep")
        assert "2 shard(s)" in sweep.detail
        assert [s[:2] for s in seen] == [(1, 4), (2, 4), (3, 4), (4, 4)]
