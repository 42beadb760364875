"""CI smoke: a timing-model edit must move the fingerprint and fail
the doctor.

Copies the fingerprinted modules to a temp tree and patches, one at a
time, a pipeline latency constant and a PRNG shift (the PRNG drives PUF
fabrication, PUF noise and encryption-slot selection).  It asserts the
chain end to end: each patched tree's fingerprint differs (and only the
patched module contributes the drift), a store recorded under a
patched model is flagged by ``eric doctor --fingerprint`` (exit 1), and
the committed store passes the same audit (exit 0).  Comment-only edits
must move nothing.

Runs locally too::

    PYTHONPATH=src python benchmarks/smoke/fingerprint_drift.py
"""

import argparse
import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from _bootstrap import ROOT  # noqa: E402 — wires sys.path

from repro.statics.fingerprint import (FINGERPRINT_MODULES,  # noqa: E402
                                       compute_report, model_fingerprint)

PACKAGE_ROOT = ROOT / "src" / "repro"
#: (module, text, replacement): each edit must drift that module alone
PATCHES = (
    ("soc/pipeline.py", "miss_penalty: int = 24", "miss_penalty: int = 37"),
    ("crypto/prng.py", "<< 17", "<< 18"),
)


def copy_tree(into: Path) -> Path:
    tree = into / "repro"
    for rel in FINGERPRINT_MODULES:
        target = tree / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(PACKAGE_ROOT / rel, target)
    return tree


def doctor(store: Path) -> int:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "doctor", "--store",
         str(store), "--fingerprint"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=ROOT).returncode


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp))
        baseline = compute_report(tree)
        assert baseline.fingerprint == model_fingerprint(), \
            "tree copy must fingerprint identically to the package"

        pipeline = tree / "soc" / "pipeline.py"
        source = pipeline.read_text(encoding="utf-8")

        # comment-only edit: nothing moves
        pipeline.write_text("# smoke banner\n" + source,
                            encoding="utf-8")
        assert compute_report(tree).fingerprint == \
            baseline.fingerprint, "comment edit moved the fingerprint"

        pipeline.write_text(source, encoding="utf-8")

        # semantic edits: the fingerprint drifts, blamed on the module
        for rel, old, new in PATCHES:
            module = tree / rel
            original = module.read_text(encoding="utf-8")
            assert old in original, f"{old!r} not found to patch in {rel}"
            module.write_text(original.replace(old, new), encoding="utf-8")
            patched = compute_report(tree)
            module.write_text(original, encoding="utf-8")
            assert patched.fingerprint != baseline.fingerprint, \
                f"{rel} edit did not move the fingerprint"
            drifted = [name for name in patched.modules
                       if patched.modules[name] != baseline.modules[name]]
            assert drifted == [rel], f"unexpected drift set {drifted}"
            print(f"drift: {old!r} -> {new!r} moved "
                  f"{baseline.fingerprint[:16]} -> "
                  f"{patched.fingerprint[:16]} via {rel}")

        # a store measured under the patched model fails the doctor
        from repro.farm.executor import execute_job
        from repro.farm.spec import JobSpec
        record = execute_job(JobSpec(
            source="int main() { return 0; }", name="drift-probe",
            simulate=False).validate())
        drifted_record = dataclasses.replace(
            record, model_fingerprint=patched.fingerprint)
        store = Path(tmp) / "store"
        store.mkdir()
        (store / "results.jsonl").write_text(
            drifted_record.to_json() + "\n", encoding="utf-8")
        code = doctor(store)
        assert code == 1, \
            f"doctor accepted a drifted store (exit {code})"
        print("doctor: drifted store correctly fails (exit 1)")

    committed = ROOT / "benchmarks" / "results" / "farm"
    code = doctor(committed)
    assert code == 0, \
        f"doctor rejected the committed store (exit {code})"
    print("doctor: committed store passes the fingerprint audit")
    print("fingerprint drift smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
