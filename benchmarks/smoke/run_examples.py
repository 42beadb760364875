"""CI smoke: every example under ``examples/`` runs to a clean exit.

Each ``examples/*.py`` is a self-checking demo of the public API.  This
runs every one in its own subprocess with ``PYTHONPATH=src`` and a
private temp directory (removed afterwards), prints each wall time,
and fails if any example exits nonzero — so an API change cannot leave
an example behind.

Runs locally too::

    PYTHONPATH=src python benchmarks/smoke/run_examples.py
"""

import os
import subprocess
import sys
import tempfile
import time

from _bootstrap import ROOT  # noqa: E402 — wires sys.path


def run_example(path) -> tuple[int, str, float]:
    """(exit code, combined output, wall seconds) of one example."""
    with tempfile.TemporaryDirectory(prefix="eric-example-") as tmp:
        path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "TMPDIR": tmp,
               "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
        start = time.perf_counter()
        run = subprocess.run([sys.executable, str(path)], cwd=ROOT,
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        return run.returncode, run.stdout, time.perf_counter() - start


def main() -> int:
    examples = sorted((ROOT / "examples").glob("*.py"))
    failed = []
    total = 0.0
    for path in examples:
        code, output, wall = run_example(path)
        total += wall
        print(f"  {path.name:<28} {wall:6.2f} s"
              + ("" if code == 0 else f"  FAILED (exit {code})"))
        if code:
            failed.append(path.name)
            print(output, end="")
    print(f"{len(examples)} example(s) in {total:.2f} s, "
          f"{len(failed)} failed")
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print("PASS: every example exits 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
