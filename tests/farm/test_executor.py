"""SimulationFarm: execution, resume, isolation, fan-out, telemetry."""

import pytest

from repro.errors import ConfigError, EricError
from repro.farm import (DYNAMIC_ATTACKER_SEEDS, JobMatrix, JobSpec,
                        ResultStore, SimParams, SimulationFarm,
                        execute_job)
from repro.puf.environment import Environment
from repro.obs.sinks import RecordingTelemetry
from repro.soc.soc import RunResult

HELLO = 'int main() { print_int(41); print_char(10); return 0; }\n'
GOODBYE = 'int main() { print_int(13); print_char(10); return 0; }\n'
BROKEN = "int main( {"


def hello_matrix(**overrides):
    options = dict(programs=(("hello", HELLO), ("goodbye", GOODBYE)))
    options.update(overrides)
    return JobMatrix(**options)


class TestExecuteJob:
    def test_simulated_record_is_complete(self):
        record = execute_job(JobSpec(source=HELLO, name="hello"))
        assert record.name == "hello"
        assert record.plain_cycles > 0
        assert record.eric_cycles == record.plain_cycles + record.hde_cycles
        assert record.package_size > record.plain_size
        assert record.baseline_s > 0
        assert record.package_total_s > record.baseline_s
        # inline sources have no oracle; registry workloads do
        assert record.stdout_ok is None
        assert record.workload is None

    def test_run_result_serializer_round_trips(self):
        record = execute_job(JobSpec(source=HELLO, name="hello"))
        run = RunResult.from_record(record.eric_run)
        assert run.stdout == "41\n"
        assert run.exit_code == 0
        assert run.counters.cycles == record.eric_run["counters"]["cycles"]

    def test_packaging_only_job_skips_simulation(self):
        record = execute_job(JobSpec(source=HELLO, simulate=False))
        assert record.plain_cycles is None
        assert record.eric_run is None
        assert record.package_size > 0

    def test_registry_workload_checks_oracle(self):
        record = execute_job(JobSpec(workload="basicmath"))
        assert record.stdout_ok is True
        assert record.workload == "basicmath"

    def test_analysis_metrics(self):
        record = execute_job(JobSpec(source=HELLO, simulate=False,
                                     analyze=True))
        assert record.analysis["enc_slots"] > 0
        assert 0.0 <= record.analysis["decode_fraction"] <= 1.0

    def test_analysis_carries_plain_baseline_and_dynamic_outcomes(self):
        record = execute_job(JobSpec(source=HELLO, simulate=False,
                                     analyze=True))
        # the unencrypted text is the static attacker's control sample
        assert record.analysis["plain"]["looks_like_code"] is True
        dynamic = record.analysis["dynamic"]
        assert [d["device_seed"] for d in dynamic] \
            == list(DYNAMIC_ATTACKER_SEEDS)
        # non-target devices must reject the package without leaking
        assert all(d["outcome"] == "rejected" for d in dynamic)
        assert all(not d["leaked"] for d in dynamic)

    def test_dynamic_attack_skips_the_target_device(self):
        """A job whose own seed is in DYNAMIC_ATTACKER_SEEDS must not
        'attack' itself and record a bogus leak."""
        seed = DYNAMIC_ATTACKER_SEEDS[0]
        record = execute_job(JobSpec(
            source=HELLO, simulate=False, analyze=True,
            params=SimParams(device_seed=seed)))
        dynamic = record.analysis["dynamic"]
        assert seed not in {d["device_seed"] for d in dynamic}
        assert len(dynamic) == len(DYNAMIC_ATTACKER_SEEDS) - 1
        assert all(not d["leaked"] for d in dynamic)

    def test_key_stability_fields(self):
        record = execute_job(JobSpec(source=HELLO, simulate=False))
        # Table I policy (screened, 11 votes, nominal point): rock
        # stable, fewer than one failed rebuild per million boots
        assert record.key_failure < 1e-6
        assert len(record.key_digest) == 64

        noisy = execute_job(JobSpec(
            source=HELLO, simulate=False,
            params=SimParams(puf_noise_sigma=0.4, puf_votes=1,
                             puf_margin_sigmas=0.0)))
        assert noisy.key_failure > 0.0

    def test_environment_threads_into_device_and_key(self):
        nominal = JobSpec(source=HELLO, simulate=False)
        hot = JobSpec(source=HELLO, simulate=False,
                      params=SimParams(environment=Environment(
                          temperature_c=125.0, voltage=0.8)))
        assert nominal.key() != hot.key()
        record = execute_job(hot)
        assert record.params["environment"]["temperature_c"] == 125.0
        # screened + voted keys survive the extreme corner on this die
        assert record.key_failure < 1e-6

    def test_overlapped_hde_serial_accounting(self):
        serial = execute_job(JobSpec(source=HELLO))
        overlapped = execute_job(JobSpec(
            source=HELLO, params=SimParams(overlapped_hde=True)))
        assert serial.hde_serial_cycles == serial.hde_cycles
        assert overlapped.hde_cycles < overlapped.hde_serial_cycles
        assert overlapped.hde_serial_cycles == serial.hde_cycles
        # overlap hides HDE latency; the program run is untouched
        assert overlapped.plain_cycles == serial.plain_cycles


class TestFarmRun:
    def test_resume_serves_everything_from_store(self, tmp_path):
        matrix = hello_matrix()
        first = SimulationFarm(store=ResultStore(tmp_path)).run(matrix)
        assert first.executed == 2 and first.hits == 0

        second = SimulationFarm(store=ResultStore(tmp_path)).run(matrix)
        assert second.executed == 0
        assert second.hits == 2
        assert second.hit_rate == 1.0
        assert [r.key for r in second.records] \
            == [r.key for r in first.records]

    def test_force_re_measures(self, tmp_path):
        matrix = hello_matrix()
        farm = SimulationFarm(store=ResultStore(tmp_path))
        farm.run(matrix)
        forced = farm.run(matrix, force=True)
        assert forced.executed == 2 and forced.hits == 0

    def test_partial_resume_only_runs_new_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        SimulationFarm(store=store).run(
            JobMatrix(programs=(("hello", HELLO),)))
        report = SimulationFarm(store=store).run(hello_matrix())
        assert report.hits == 1
        assert report.executed == 1

    def test_key_schema_bump_re_measures_a_warm_store(self, tmp_path,
                                                      monkeypatch):
        """A KEY_SCHEMA bump orphans every stored record: resume must
        re-measure instead of serving stale results."""
        from repro.farm import spec as spec_module

        matrix = hello_matrix()
        store = ResultStore(tmp_path)
        warm = SimulationFarm(store=store).run(matrix)
        assert warm.executed == 2

        monkeypatch.setattr(spec_module, "KEY_SCHEMA",
                            spec_module.KEY_SCHEMA + 1)
        bumped = SimulationFarm(store=store).run(matrix)
        assert bumped.hits == 0
        assert bumped.executed == 2
        # old records stay on disk (harmless) until a compact + reload
        assert len(store) == 4

    def test_no_store_always_measures(self):
        farm = SimulationFarm()
        matrix = JobMatrix(programs=(("hello", HELLO),))
        assert farm.run(matrix).executed == 1
        assert farm.run(matrix).executed == 1

    def test_failure_isolation(self, tmp_path):
        store = ResultStore(tmp_path)
        report = SimulationFarm(store=store).run([
            JobSpec(source=BROKEN, name="broken"),
            JobSpec(source=HELLO, name="hello"),
        ])
        assert report.executed == 1
        [failure] = report.failures
        assert failure.spec.display_name == "broken"
        assert "ParseError" in failure.error
        # failed jobs are never persisted: the next run retries them
        assert len(store) == 1
        with pytest.raises(EricError, match="broken"):
            report.require_ok()

    def test_errors_carry_a_trimmed_traceback(self):
        """Regression: errors used to keep only the exception's last
        line, which made remote shard failures undebuggable.  The
        single-line error now names the innermost frames, and
        require_ok surfaces them."""
        report = SimulationFarm().run(
            [JobSpec(source=BROKEN, name="broken")])
        [failure] = report.failures
        assert "ParseError" in failure.error
        assert "[at " in failure.error
        assert ".py:" in failure.error  # file:line of a real frame
        assert "\n" not in failure.error  # stays one line for summaries
        with pytest.raises(EricError, match=r"\[at .*\.py:"):
            report.require_ok()

    def test_total_eric_cycles_sums_only_simulated_records(self, tmp_path):
        """Regression: `or 0` conflated unsimulated records
        (eric_cycles is None) with a measured zero; the sum now skips
        records that were never simulated."""
        report = SimulationFarm(store=ResultStore(tmp_path)).run([
            JobSpec(source=HELLO, name="sim"),
            JobSpec(source=GOODBYE, name="nosim", simulate=False),
        ])
        report.require_ok()
        simulated = [r for r in report.records
                     if r.eric_cycles is not None]
        assert len(simulated) == 1  # the simulate=False record is out
        assert report.total_eric_cycles == simulated[0].eric_cycles
        assert report.total_eric_cycles > 0

    def test_process_pool_fan_out(self, tmp_path):
        report = SimulationFarm(store=ResultStore(tmp_path),
                                jobs=2).run(hello_matrix())
        assert report.executed == 2
        assert report.failures == ()
        inline = SimulationFarm().run(hello_matrix())
        assert [r.eric_cycles for r in report.records] \
            == [r.eric_cycles for r in inline.records]

    def test_pool_failure_isolation(self):
        report = SimulationFarm(jobs=2).run([
            JobSpec(source=BROKEN, name="broken"),
            JobSpec(source=HELLO, name="hello"),
            JobSpec(source=GOODBYE, name="goodbye"),
        ])
        assert report.executed == 2
        assert len(report.failures) == 1

    def test_pool_jobs_are_timed_where_they_run(self):
        """Regression: pooled jobs were timed from submission, so a job
        queued behind others reported its wait as its own wall time
        (6 jobs on 2 workers: 1.30 s reported for 0.60 s of work)."""
        report = SimulationFarm(jobs=2).run([
            JobSpec(source=f"int main() {{ return {i}; }}\n",
                    name=f"p{i}", simulate=False)
            for i in range(6)])
        report.require_ok()
        for result in report.results:
            # the worker's timing wraps execute_job's own, nothing more
            assert 0.0 <= result.wall_s - result.record.wall_s < 0.05

    def test_empty_and_invalid_inputs(self):
        farm = SimulationFarm()
        with pytest.raises(ConfigError):
            farm.run([])
        with pytest.raises(ConfigError):
            SimulationFarm(jobs=0)

    def test_keyboard_interrupt_aborts_the_sweep(self, monkeypatch):
        """Ctrl-C must stop a sweep, not be recorded as a job failure."""
        from repro.farm import executor

        monkeypatch.setattr(
            executor, "execute_job",
            lambda spec: (_ for _ in ()).throw(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            SimulationFarm().run([JobSpec(source=HELLO, name="hello")])

    def test_inline_record_satisfies_registry_lookup(self, tmp_path):
        """The key ignores how a source was provided, so a record
        measured from an inline source (no oracle, stdout_ok=None) may
        serve a registry-workload job; output_ok re-checks the console
        against the caller's oracle instead of failing."""
        from repro.workloads import get_workload

        store = ResultStore(tmp_path)
        inline = JobSpec(source=get_workload("basicmath").source,
                         name="whatever")
        SimulationFarm(store=store).run([inline])

        report = SimulationFarm(store=store).run(
            JobMatrix(workloads=("basicmath",)))
        assert report.hits == 1
        [job] = report.results
        record = job.record
        assert record.stdout_ok is None  # measured without an oracle
        expected = get_workload("basicmath").expected_stdout
        assert record.output_ok(expected)
        assert not record.output_ok("something else entirely\n")


class TestObservability:
    def test_telemetry_and_progress(self, tmp_path):
        sink = RecordingTelemetry()
        seen = []
        farm = SimulationFarm(
            store=ResultStore(tmp_path),
            progress=lambda done, total, result:
                seen.append((done, total, result.from_store)))
        farm.tracer.add_sink(sink)
        farm.run(hello_matrix())
        assert len(sink.stages("farm.job")) == 2
        [sweep] = sink.stages("farm.sweep")
        assert "2 executed" in sweep.detail
        assert seen == [(1, 2, False), (2, 2, False)]

        seen.clear()
        farm.run(hello_matrix())
        assert seen == [(1, 2, True), (2, 2, True)]

    def test_progress_failures_are_isolated(self, tmp_path):
        def explode(done, total, result):
            raise RuntimeError("bad progress hook")

        farm = SimulationFarm(store=ResultStore(tmp_path),
                              progress=explode)
        report = farm.run(JobMatrix(programs=(("hello", HELLO),)))
        assert report.failures == ()

    def test_report_render_is_sorted_and_stable(self, tmp_path):
        farm = SimulationFarm(store=ResultStore(tmp_path))
        farm.run(hello_matrix())  # populate the store
        # submission order differs; rendering must not
        a = farm.run([JobSpec(source=HELLO, name="hello"),
                      JobSpec(source=GOODBYE, name="goodbye")])
        b = farm.run([JobSpec(source=GOODBYE, name="goodbye"),
                      JobSpec(source=HELLO, name="hello")])
        assert a.render() == b.render()
        assert "hit" in b.render()
