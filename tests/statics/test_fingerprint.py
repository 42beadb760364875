"""Model fingerprint: byte-stable, formatting-blind, timing-sensitive."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.statics.fingerprint import (FINGERPRINT_MODULES,
                                       FingerprintReport, compute_report,
                                       fingerprint_report,
                                       model_fingerprint)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


@pytest.fixture
def tree_copy(tmp_path):
    """A private copy of just the fingerprinted modules."""
    root = tmp_path / "repro"
    for rel in FINGERPRINT_MODULES:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(PACKAGE_ROOT / rel, target)
    return root


class TestFingerprint:
    def test_covers_every_declared_module(self):
        report = compute_report()
        assert set(report.modules) == set(FINGERPRINT_MODULES)

    def test_memoized_report_matches_fresh_compute(self):
        assert fingerprint_report().fingerprint == \
            compute_report().fingerprint
        assert model_fingerprint() == fingerprint_report().fingerprint

    def test_byte_stable_across_processes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(PACKAGE_ROOT.parent)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.statics import model_fingerprint;"
             "print(model_fingerprint())"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == model_fingerprint()

    def test_comment_and_docstring_edits_change_nothing(self, tree_copy):
        before = compute_report(tree_copy)
        pipeline = tree_copy / "soc" / "pipeline.py"
        pipeline.write_text("# tooling banner\n"
                            + pipeline.read_text(encoding="utf-8")
                            + "\n# trailing note\n", encoding="utf-8")
        assert compute_report(tree_copy).fingerprint == before.fingerprint

    def test_latency_constant_edit_changes_fingerprint(self, tree_copy):
        before = compute_report(tree_copy)
        pipeline = tree_copy / "soc" / "pipeline.py"
        source = pipeline.read_text(encoding="utf-8")
        assert "miss_penalty: int = 24" in source
        pipeline.write_text(
            source.replace("miss_penalty: int = 24",
                           "miss_penalty: int = 25"), encoding="utf-8")
        after = compute_report(tree_copy)
        assert after.fingerprint != before.fingerprint
        changed = [name for name in after.modules
                   if after.modules[name] != before.modules[name]]
        assert changed == ["soc/pipeline.py"]

    def test_prng_edit_changes_fingerprint(self, tree_copy):
        """The PRNG drives PUF fabrication and noise and slot selection:
        editing it must orphan every stored record."""
        before = compute_report(tree_copy)
        prng = tree_copy / "crypto" / "prng.py"
        source = prng.read_text(encoding="utf-8")
        assert "<< 17" in source
        prng.write_text(source.replace("<< 17", "<< 18"), encoding="utf-8")
        after = compute_report(tree_copy)
        assert after.fingerprint != before.fingerprint
        changed = [name for name in after.modules
                   if after.modules[name] != before.modules[name]]
        assert changed == ["crypto/prng.py"]

    def test_report_roundtrips_through_json(self):
        report = compute_report()
        revived = FingerprintReport.from_dict(
            json.loads(report.to_json()))
        assert revived == report

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ValueError, match="not a fingerprint report"):
            FingerprintReport.from_dict(["nope"])
        with pytest.raises(ValueError, match="not a fingerprint report"):
            FingerprintReport.from_dict({"fingerprint": 7, "modules": {}})

    def test_diff_names_the_drifted_module(self, tree_copy):
        before = compute_report(tree_copy)
        pipeline = tree_copy / "soc" / "pipeline.py"
        pipeline.write_text(
            pipeline.read_text(encoding="utf-8").replace(
                "flush_penalty: int = 2", "flush_penalty: int = 3"),
            encoding="utf-8")
        text = compute_report(tree_copy).diff(before)
        assert "fingerprint drifted" in text
        assert "changed  soc/pipeline.py" in text

    def test_diff_of_equal_reports_says_match(self):
        report = compute_report()
        assert "fingerprints match" in report.diff(report)
