"""The fingerprint reaches the farm: job keys, records, shard specs,
and the doctor's drift audit."""

import dataclasses

import pytest

import repro.statics.fingerprint as fingerprint_mod
from repro.errors import ConfigError
from repro.farm.doctor import audit_fingerprints, record_key
from repro.farm.executor import execute_job
from repro.farm.spec import JobSpec, ShardPlan, ShardSpec
from repro.farm.store import STORE_SCHEMA, FarmRecord, ResultStore
from repro.statics.fingerprint import FingerprintReport, model_fingerprint

SOURCE = """
int main() {
    print_str("fingerprinted\\n");
    return 0;
}
"""

FAKE = FingerprintReport(fingerprint="f" * 64, modules={})


def fresh_spec(**overrides) -> JobSpec:
    options = {"source": SOURCE, "name": "probe", "simulate": False}
    options.update(overrides)
    return JobSpec(**options).validate()


class TestKeyEmbedsFingerprint:
    def test_model_drift_changes_the_key(self, monkeypatch):
        before = fresh_spec().key()
        monkeypatch.setattr(fingerprint_mod, "_MEMO", FAKE)
        assert fresh_spec().key() != before

    def test_stable_under_same_model(self):
        assert fresh_spec().key() == fresh_spec().key()


class TestRecordCarriesFingerprint:
    def test_execute_job_records_current_fingerprint(self):
        record = execute_job(fresh_spec())
        assert record.model_fingerprint == model_fingerprint()
        assert record.schema == STORE_SCHEMA

    def test_fingerprint_survives_the_store_roundtrip(self, tmp_path):
        record = execute_job(fresh_spec())
        store = ResultStore(tmp_path)
        store.put(record)
        revived = ResultStore(tmp_path).get(record.key)
        assert revived.model_fingerprint == record.model_fingerprint

    def test_fingerprint_is_a_stable_field(self):
        # same key => same fingerprint: it participates in stable_dict
        record = execute_job(fresh_spec())
        assert "model_fingerprint" in record.stable_dict()


class TestShardSpecPinsFingerprint:
    def plan_spec(self) -> dict:
        (shard,) = ShardPlan.partition([fresh_spec()], 1).shards
        return shard.to_spec()

    def test_roundtrip_under_same_model(self):
        data = self.plan_spec()
        assert data["model_fingerprint"] == model_fingerprint()
        assert ShardSpec.from_spec(data).jobs[0].name == "probe"

    def test_drifted_fingerprint_is_refused(self):
        data = self.plan_spec()
        data["model_fingerprint"] = "f" * 64
        with pytest.raises(ConfigError, match="timing-model "
                                              "fingerprint"):
            ShardSpec.from_spec(data)

    def test_missing_fingerprint_is_refused(self):
        data = self.plan_spec()
        del data["model_fingerprint"]
        with pytest.raises(ConfigError, match="re-plan the sweep"):
            ShardSpec.from_spec(data)


def write_store(tmp_path, fingerprints) -> str:
    """A store whose records carry the given fingerprints, each keyed
    as its own fields derive (so none is orphaned); returns the
    directory."""
    template = execute_job(fresh_spec())
    lines = []
    for i, fp in enumerate(fingerprints):
        record = dataclasses.replace(template, repeats=i + 1,
                                     model_fingerprint=fp)
        record = dataclasses.replace(record, key=record_key(record))
        lines.append(record.to_json())
    (tmp_path / "results.jsonl").write_text("\n".join(lines) + "\n")
    return str(tmp_path)


class TestFingerprintAudit:
    def test_matching_store_is_healthy(self, tmp_path):
        audit = audit_fingerprints(
            write_store(tmp_path, [model_fingerprint()] * 3))
        assert (audit.live_records, audit.matching, audit.drifted,
                audit.missing) == (3, 3, 0, 0)
        assert audit.healthy

    def test_drift_and_missing_are_counted(self, tmp_path):
        audit = audit_fingerprints(write_store(
            tmp_path, [model_fingerprint(), "a" * 64, "a" * 64,
                       "b" * 64, None]))
        assert (audit.matching, audit.drifted, audit.missing) == (1, 3, 1)
        assert audit.drifted_fingerprints == {"a" * 64: 2, "b" * 64: 1}
        assert not audit.healthy
        text = audit.describe()
        assert "3 drifted" in text
        assert "NEEDS ATTENTION" in text

    def test_record_keyed_under_an_older_schema_is_orphaned(
            self, tmp_path, monkeypatch):
        """A KEY_SCHEMA bump without regeneration leaves records no
        current key reaches, though their fingerprints still match."""
        from repro.farm import spec as spec_module

        current = execute_job(fresh_spec())
        monkeypatch.setattr(spec_module, "KEY_SCHEMA",
                            spec_module.KEY_SCHEMA - 1)
        old = execute_job(fresh_spec(repeats=2))
        monkeypatch.undo()
        (tmp_path / "results.jsonl").write_text(
            current.to_json() + "\n" + old.to_json() + "\n")
        audit = audit_fingerprints(tmp_path)
        assert (audit.live_records, audit.matching, audit.drifted,
                audit.orphaned) == (2, 2, 0, 1)
        assert not audit.healthy
        assert "1 orphaned" in audit.describe()
        assert "NEEDS ATTENTION" in audit.describe()

    def test_missing_alone_is_not_fatal(self, tmp_path):
        audit = audit_fingerprints(write_store(tmp_path, [None]))
        assert audit.missing == 1
        assert audit.healthy

    def test_empty_store_dir_audits_clean(self, tmp_path):
        audit = audit_fingerprints(tmp_path)
        assert not audit.exists
        assert audit.healthy

    def test_last_record_per_key_wins(self, tmp_path):
        template = execute_job(fresh_spec())
        stale = dataclasses.replace(template, model_fingerprint="c" * 64)
        path = tmp_path / "results.jsonl"
        path.write_text(stale.to_json() + "\n" + template.to_json() + "\n")
        audit = audit_fingerprints(tmp_path)
        assert (audit.live_records, audit.drifted) == (1, 0)


class TestCommittedStoreMatchesTree:
    def test_committed_records_carry_the_current_fingerprint(self):
        import pathlib
        committed = (pathlib.Path(__file__).resolve().parents[2]
                     / "benchmarks" / "results" / "farm")
        audit = audit_fingerprints(committed)
        assert audit.exists
        assert audit.healthy
        assert audit.drifted == 0 and audit.missing == 0
        assert audit.matching == audit.live_records > 0
