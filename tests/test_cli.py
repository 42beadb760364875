"""CLI front end: package/run/inspect/describe round trips."""

import json

import pytest

from repro.cli import main

SOURCE = """
int main() {
    print_str("cli says hi\\n");
    return 3;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestPackageRunFlow:
    def test_package_then_run(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.eric")
        assert main(["package", source_file, "-o", out,
                     "--device-seed", "0x42"]) == 0
        captured = capsys.readouterr().out
        assert "package size" in captured

        code = main(["run", out, "--device-seed", "0x42"])
        captured = capsys.readouterr().out
        assert "cli says hi" in captured
        assert code == 3

    def test_wrong_device_blocked(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.eric")
        main(["package", source_file, "-o", out, "--device-seed", "0x42"])
        capsys.readouterr()
        code = main(["run", out, "--device-seed", "0x43"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_inspect(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.eric")
        main(["package", source_file, "-o", out])
        capsys.readouterr()
        assert main(["inspect", out]) == 0
        captured = capsys.readouterr().out
        assert "mode          : full" in captured
        assert "xor-repeating" in captured

    def test_package_with_config(self, source_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "partial",
                                      "partial_fraction": 0.25}))
        out = str(tmp_path / "prog.eric")
        assert main(["package", source_file, "-o", out,
                     "--config", str(config)]) == 0
        capsys.readouterr()
        main(["inspect", out])
        assert "partial" in capsys.readouterr().out


class TestFleetCommand:
    def test_fleet_compiles_once(self, source_file, capsys):
        assert main(["fleet", source_file, "--devices", "3"]) == 0
        out = capsys.readouterr().out
        assert "3/3 devices ok" in out
        assert "compiles     : 1" in out

    def test_fleet_explicit_seeds(self, source_file, capsys):
        assert main(["fleet", source_file,
                     "--device-seeds", "0x10,0x11"]) == 0
        out = capsys.readouterr().out
        assert "2/2 devices ok" in out


class TestServeCommand:
    FLEETS = {"fleets": [
        {"name": "alpha", "programs": [{"name": "probe",
                                        "source": SOURCE}],
         "device_seeds": [1, 2]},
        {"name": "beta", "programs": [{"name": "probe",
                                       "source": SOURCE}],
         "device_seeds": [2, 3]},
    ]}

    @pytest.fixture
    def fleets_file(self, tmp_path):
        path = tmp_path / "fleets.json"
        path.write_text(json.dumps(self.FLEETS))
        return str(path)

    def test_serve_then_warm_resume(self, fleets_file, tmp_path, capsys):
        store = str(tmp_path / "farm")
        assert main(["serve", "--fleets", fleets_file,
                     "--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fleet 'alpha'" in out and "fleet 'beta'" in out
        assert "4 job request(s) -> 3 unique, 3 executed" in out

        assert main(["serve", "--fleets", fleets_file,
                     "--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "3 unique, 0 executed, 3 store hit(s)" in out

    def test_serve_narrates_scheduler_stages(self, fleets_file,
                                             tmp_path, capsys):
        assert main(["serve", "--fleets", fleets_file,
                     "--store", str(tmp_path / "farm")]) == 0
        out = capsys.readouterr().out
        assert "[scheduler.fleet.begin]" in out
        assert "[scheduler.batch]" in out

    def test_serve_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "fleets.json"
        path.write_text(json.dumps({"fleets": [{"workloads": ["crc32"]}]}))
        assert main(["serve", "--fleets", str(path), "--no-store"]) == 1
        assert "eric: error:" in capsys.readouterr().err

    def test_serve_shards_require_a_store(self, fleets_file, capsys):
        assert main(["serve", "--fleets", fleets_file, "--shards", "2",
                     "--no-store"]) == 1
        assert "drop --no-store" in capsys.readouterr().err

    def test_serve_names_failed_jobs_and_exits_nonzero(self, tmp_path,
                                                       capsys):
        path = tmp_path / "fleets.json"
        # "starved" compiles but blows its simulator budget at run
        # time, and "noparse" does not compile: both failures surface
        # as per-job results, and the good fleet is still served
        path.write_text(json.dumps({"fleets": [
            {"name": "good", "programs": [{"name": "probe",
                                           "source": SOURCE}]},
            {"name": "bad", "programs": [{"name": "starved",
                                          "source": SOURCE}],
             "max_instructions": 5},
            {"name": "broken", "programs": [
                {"name": "noparse", "source": "int main() { return 0 }"}]},
        ]}))
        assert main(["serve", "--fleets", str(path), "--no-store",
                     "--quiet"]) == 1
        out = capsys.readouterr().out
        # the summary names each failed job so the operator does not
        # have to re-run with telemetry on
        assert "FAILED bad/starved:" in out
        [broken] = [line for line in out.splitlines()
                    if "FAILED broken/noparse:" in line]
        assert "ParseError" in broken
        assert "FAILED good" not in out


class TestDaemonCommands:
    FLEETS = {"fleets": [
        {"name": "alpha", "programs": [{"name": "probe",
                                        "source": SOURCE}],
         "device_seeds": [1, 2]},
        {"name": "beta", "programs": [{"name": "probe",
                                       "source": SOURCE}],
         "device_seeds": [2, 3]},
    ]}

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "fleets.json"
        path.write_text(json.dumps(self.FLEETS))
        return str(path)

    def test_submit_daemon_status_round_trip(self, spec_file, tmp_path,
                                             capsys):
        journal = str(tmp_path / "journal")
        store = str(tmp_path / "farm")
        assert main(["submit", spec_file, "--journal", journal,
                     "--priority", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("submitted ") == 2

        assert main(["status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "2 submitted" in out and "p2" in out

        assert main(["daemon", "--journal", journal, "--store", store,
                     "--once", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 admitted" in out and "2 done" in out

        assert main(["status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "no live requests" in out

    def test_daemon_submits_fleets_and_narrates(self, spec_file,
                                                tmp_path, capsys):
        assert main(["daemon", "--journal", str(tmp_path / "journal"),
                     "--fleets", spec_file, "--store",
                     str(tmp_path / "farm"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[daemon.admit]" in out
        assert "[daemon.request]" in out

    def test_daemon_shards_require_a_store(self, tmp_path, capsys):
        assert main(["daemon", "--journal", str(tmp_path / "journal"),
                     "--shards", "2", "--no-store", "--once"]) == 1
        assert "drop --no-store" in capsys.readouterr().err

    def test_submit_rejects_bad_spec_without_journaling(self, tmp_path,
                                                        capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fleets": [
            {"name": "ok", "programs": [{"name": "p",
                                         "source": SOURCE}]},
            {"workloads": ["crc32"]},
        ]}))
        journal = tmp_path / "journal"
        assert main(["submit", str(path),
                     "--journal", str(journal)]) == 1
        assert "eric: error:" in capsys.readouterr().err
        # the valid first fleet was not half-submitted
        assert not (journal / "journal.jsonl").exists()

    def test_status_compact_rewrites_the_journal(self, spec_file,
                                                 tmp_path, capsys):
        journal = str(tmp_path / "journal")
        store = str(tmp_path / "farm")
        main(["submit", spec_file, "--journal", journal])
        main(["daemon", "--journal", journal, "--store", store,
              "--once", "--quiet"])
        capsys.readouterr()
        assert main(["status", "--journal", journal,
                     "--compact"]) == 0
        assert "journal compacted: 2" in capsys.readouterr().out
        lines = (tmp_path / "journal" /
                 "journal.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_doctor_reports_stuck_running_requests(self, tmp_path,
                                                   capsys):
        from dataclasses import replace

        from repro.service.daemon import JournalStore

        journal = JournalStore(tmp_path / "journal")
        record = journal.submit(self.FLEETS["fleets"][0], total_jobs=2)
        stale = replace(record, state="running",
                        updated_at=record.updated_at - 3600.0)
        journal.append(stale)
        assert main(["doctor", "--store", str(tmp_path / "farm"),
                     "--journal", str(tmp_path / "journal")]) == 1
        out = capsys.readouterr().out
        assert "STUCK" in out and "restart the daemon" in out
        assert "NEEDS ATTENTION" in out
        # a generous staleness window clears the verdict
        assert main(["doctor", "--store", str(tmp_path / "farm"),
                     "--journal", str(tmp_path / "journal"),
                     "--stale-after", "7200"]) == 0


class TestDoctorCommand:
    def test_doctor_healthy_store(self, tmp_path, capsys):
        from repro.farm import JobMatrix, ResultStore, SimulationFarm

        store = tmp_path / "farm"
        SimulationFarm(store=ResultStore(store)).run(
            JobMatrix(programs=(("probe", SOURCE),), simulate=False))
        assert main(["doctor", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 live record(s)" in out
        assert "verdict: healthy" in out

    def test_doctor_flags_junk(self, tmp_path, capsys):
        store = tmp_path / "farm"
        store.mkdir()
        (store / "results.jsonl").write_text(
            '{"schema": 1, "key": "old"}\nnot json\n')
        assert main(["doctor", "--store", str(store)]) == 1
        out = capsys.readouterr().out
        assert "NEEDS ATTENTION" in out
        assert "1 corrupt, 1 foreign-schema" in out

    def test_doctor_empty_store_dir(self, tmp_path, capsys):
        assert main(["doctor", "--store", str(tmp_path)]) == 0
        assert "nothing measured yet" in capsys.readouterr().out


class TestSweepCommand:
    SPEC = {
        "programs": [
            {"name": "hello", "source": SOURCE},
            {"name": "answer",
             "source": "int main() { print_int(42); return 0; }\n"},
        ],
        "configs": [{}, {"mode": "partial", "partial_fraction": 0.25}],
    }

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_sweep_then_resume_hits_everything(self, spec_file, tmp_path,
                                               capsys):
        store = str(tmp_path / "farm")
        assert main(["sweep", spec_file, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 jobs -> 0 store hits, 4 executed" in out
        assert "results.jsonl (4 records)" in out

        # the acceptance criterion: a repeated sweep simulates nothing
        assert main(["sweep", spec_file, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 jobs -> 4 store hits, 0 executed" in out
        assert "hit rate 100%" in out

    def test_sweep_force_re_measures(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "farm")
        main(["sweep", spec_file, "--store", store, "--quiet"])
        capsys.readouterr()
        assert main(["sweep", spec_file, "--store", store,
                     "--force", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 store hits, 4 executed" in out

    def test_sweep_no_store(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--no-store", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 store hits, 4 executed" in out
        assert "store:" not in out

    def test_sweep_progress_lines(self, spec_file, tmp_path, capsys):
        assert main(["sweep", spec_file,
                     "--store", str(tmp_path / "farm")]) == 0
        out = capsys.readouterr().out
        assert "[farm.job] hello" in out
        assert "[farm.job] answer" in out

    def test_sweep_narrates_a_shared_slot_as_shared(self, tmp_path,
                                                    capsys):
        """One source named twice is measured once: the second name's
        line says its slot shared that measurement."""
        spec = tmp_path / "twice.json"
        spec.write_text(json.dumps({
            "programs": [{"name": "a", "source": SOURCE},
                         {"name": "b", "source": SOURCE}],
            "simulate": False}))
        assert main(["sweep", str(spec), "--no-store"]) == 0
        lines = [line.rsplit(" (", 1)[0]
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  [farm.job]")]
        assert lines == ["  [farm.job] a: executed",
                         "  [farm.job] b: shared"]

    def test_sweep_reports_failures(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "programs": [{"name": "broken", "source": "int main( {"}]}))
        assert main(["sweep", str(spec), "--no-store", "--quiet"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_sweep_compact_rewrites_and_warns_on_junk(self, spec_file,
                                                      tmp_path, capsys):
        store = str(tmp_path / "farm")
        main(["sweep", spec_file, "--store", store, "--quiet"])
        results = tmp_path / "farm" / "results.jsonl"
        with results.open("a") as handle:
            handle.write("not json at all\n")
        capsys.readouterr()

        # the skipped line is surfaced, --compact drops it
        assert main(["sweep", spec_file, "--store", store,
                     "--quiet", "--compact"]) == 0
        captured = capsys.readouterr()
        assert "1 corrupt or schema-mismatched line(s)" in captured.err
        assert "store compacted: 4 live record(s)" in captured.out
        assert len(results.read_text().strip().splitlines()) == 4

        # a compacted store loads clean: no warning the next time
        assert main(["sweep", spec_file, "--store", store,
                     "--quiet"]) == 0
        assert "corrupt" not in capsys.readouterr().err

    def test_sweep_compact_requires_a_store(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--no-store", "--compact"]) == 1
        assert "--compact" in capsys.readouterr().err

    def test_sweep_environment_axis(self, tmp_path, capsys):
        spec = tmp_path / "env.json"
        spec.write_text(json.dumps({
            "programs": self.SPEC["programs"][:1],
            "environments": [{}, {"temperature_c": 85.0}],
            "simulate": False,
        }))
        assert main(["sweep", str(spec), "--no-store", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 jobs -> 0 store hits, 2 executed" in out
        assert "85C/1.00V" in out and "25C/1.00V" in out

    def test_sweep_sharded_then_unsharded_resume(self, spec_file,
                                                 tmp_path, capsys):
        """The distributed acceptance path: a --shards 2 cold sweep
        merges every shard store into the main store, after which a
        plain sweep simulates nothing."""
        store = str(tmp_path / "farm")
        assert main(["sweep", spec_file, "--store", store,
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 jobs -> 0 store hits, 4 executed" in out
        assert "shards=2" in out
        assert "shard 1/2 merged: 2 record(s) merged" in out
        assert "shard 2/2 merged: 2 record(s) merged" in out
        assert "[farm.shard]" in out
        # the coordinator's shard artifacts live under the store
        shards = tmp_path / "farm" / "shards"
        assert (shards / "shard-00" / "shard.json").exists()
        assert (shards / "shard-01" / "results.jsonl").exists()

        assert main(["sweep", spec_file, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 jobs -> 4 store hits, 0 executed" in out
        assert "hit rate 100%" in out

    def test_sweep_shards_require_a_store(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--no-store",
                     "--shards", "2"]) == 1
        assert "--shards" in capsys.readouterr().err

    def test_worker_runs_a_shard_spec(self, spec_file, tmp_path, capsys):
        """The remote-machine flow: plan locally, run the shard via
        `eric worker`, merge the shipped-back store."""
        import json as json_module

        from repro.farm import JobMatrix, ResultStore, ShardPlan
        from repro.farm.coordinator import write_shard_specs

        matrix = JobMatrix.from_spec(
            json_module.loads(open(spec_file).read()))
        [first, _] = write_shard_specs(ShardPlan.partition(matrix, 2),
                                       tmp_path / "shards")

        remote = str(tmp_path / "remote")
        assert main(["worker", str(first), "--store", remote,
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2" in out
        assert "2 executed" in out
        stats = ResultStore(tmp_path / "main").merge_from(remote)
        assert stats.added == 2

    def test_worker_rejects_a_stale_shard_spec(self, tmp_path, capsys):
        (tmp_path / "shard.json").write_text(json.dumps({
            "kind": "eric-shard", "key_schema": -1, "index": 0,
            "count": 1, "start": "0", "stop": "f", "jobs": []}))
        assert main(["worker", str(tmp_path / "shard.json"),
                     "--store", str(tmp_path / "store")]) == 1
        assert "KEY_SCHEMA" in capsys.readouterr().err

    def test_sweep_rejects_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"workloads": ["no-such-workload"]}))
        assert main(["sweep", str(spec)]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_rejects_malformed_json(self, tmp_path, capsys):
        spec = tmp_path / "notjson.txt"
        spec.write_text("{this is not json")
        assert main(["sweep", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "eric: error:" in err
        assert "not valid JSON" in err


class TestOtherCommands:
    def test_describe_default(self, capsys):
        assert main(["describe"]) == 0
        assert "mode:" in capsys.readouterr().out.replace(" ", "")

    def test_describe_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "field"}))
        assert main(["describe", "--config", str(config)]) == 0
        assert "field" in capsys.readouterr().out

    def test_disasm(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        captured = capsys.readouterr().out
        assert "jal" in captured or "addi" in captured

    def test_bad_config_reports_error(self, source_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "nonsense"}))
        assert main(["describe", "--config", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        assert main(["run", "/nonexistent.eric"]) == 1
        assert "No such file" in capsys.readouterr().err
