"""CI smoke: the observability guarantee — a traced 2x2 sweep leaves a
complete, connected trace whose critical path ``eric trace`` can walk
and an ``eric metrics`` dump that counts every job executed once
(``farm.executed`` and ``farm.job.wall_s`` both at the total), and a
warm rerun's dump reports every job as a store hit (``store.hits ==
total jobs``, zero re-simulation).

Everything goes through the real CLI so flag routing, the trace and
metrics file locations, and the rendered reports all stay covered.
Runs locally::

    PYTHONPATH=src python benchmarks/smoke/tracing_metrics.py
"""

import argparse
import contextlib
import io
import re
import tempfile

from _bootstrap import ROOT  # noqa: E402 — wires sys.path

from repro.cli import main as cli_main  # noqa: E402
from repro.obs.trace import (build_trees,  # noqa: E402
                             read_trace)

SPEC_PATH = ROOT / "examples" / "sweep_spec.json"
TOTAL_JOBS = 4  # the 2x2 smoke matrix


def counter(output: str, name: str) -> int:
    """One value line of an ``eric metrics`` rendering."""
    match = re.search(rf"^{name} (\d+)$", output, re.MULTILINE)
    assert match, f"no {name} in:\n{output}"
    return int(match.group(1))


def run_cli(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    output = stdout.getvalue()
    print(output, end="")
    assert code == 0, f"eric {argv[0]} exited {code}:\n{output}"
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store",
                        help="store directory (default: fresh temp dir)")
    args = parser.parse_args(argv)
    store = args.store or tempfile.mkdtemp(prefix="farm-trace-")

    # -- cold traced sweep ------------------------------------------------
    output = run_cli(["sweep", str(SPEC_PATH), "--store", store,
                      "--trace", "--metrics", "--quiet"])
    assert f"{TOTAL_JOBS} jobs -> 0 store hits" in output, output
    output = run_cli(["metrics", store])
    assert counter(output, "eric_farm_executed") == TOTAL_JOBS, output
    assert counter(output, "eric_farm_job_wall_s_count") == TOTAL_JOBS, \
        output

    # -- the trace is one connected tree with a complete critical path ----
    spans, skipped = read_trace(store)
    assert skipped == 0, f"{skipped} corrupt trace line(s)"
    (tree,) = build_trees(spans.values())
    assert tree.connected, "trace has orphans or multiple roots"
    assert len(tree.spans) == TOTAL_JOBS + 1, sorted(
        s.name for s in tree.spans)
    output = run_cli(["trace", store])
    assert "critical path: farm.sweep -> farm.job" in output, output
    assert "UNFINISHED" not in output, output

    # -- warm rerun: every job is a store hit, and metrics prove it -------
    output = run_cli(["sweep", str(SPEC_PATH), "--store", store,
                      "--trace", "--metrics", "--quiet"])
    assert f"{TOTAL_JOBS} jobs -> {TOTAL_JOBS} store hits" in output, output
    output = run_cli(["metrics", store])
    assert counter(output, "eric_store_hits") == TOTAL_JOBS, output

    # -- and the doctor agrees -------------------------------------------
    output = run_cli(["doctor", "--store", store, "--trace", store])
    assert "verdict: healthy" in output, output
    print("PASS: tracing + metrics smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
