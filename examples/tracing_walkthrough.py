#!/usr/bin/env python3
"""Observability walkthrough: trace a sharded sweep end to end.

Runs a 2-program matrix through a sharded simulation farm with tracing
on, then plays the operator role: render the merged waterfall
(`eric trace`), dump and render the metrics registry (`eric metrics`),
and let the doctor check the trace for orphans and crashed requests.
Every span in the waterfall — including the ones written by the worker
subprocesses into their own shard stores — belongs to one connected
tree.

Run:  python examples/tracing_walkthrough.py
"""

import pathlib
import sys
import tempfile

if True:  # allow running straight from a checkout
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.farm import JobMatrix, ResultStore, SimulationFarm
from repro.obs import (METRICS, Tracer, build_trees, diagnose_trace,
                       read_trace, render_snapshot, render_traces)

HELLO = 'int main() { print_int(41); print_char(10); return 0; }\n'
COUNTDOWN = """
int main() {
    for (int i = 3; i > 0; i--) { print_int(i); print_char(' '); }
    print_char('\\n');
    return 0;
}
"""


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="eric-trace-"))
    store = ResultStore(workdir / "farm")

    # A tracer rooted at the store directory: the sharded farm opens
    # the root span, writes its context into each shard.json, and
    # merges the workers' trace files back after their stores merge.
    farm = SimulationFarm(store, shards=2, tracer=Tracer(store.root))
    matrix = JobMatrix(programs=(("hello", HELLO),
                                 ("countdown", COUNTDOWN)))
    report = farm.run(matrix)
    report.require_ok()
    print(report.summary())
    print(report.profile_summary())

    # -- eric trace: the merged waterfall ------------------------------
    print("\n=== eric trace ===")
    print(render_traces(store.root))

    spans, _ = read_trace(store.root)
    (tree,) = build_trees(spans.values())
    assert tree.connected, "shard spans must reconnect after the merge"
    names = sorted({span.name for span in tree.spans})
    print(f"\none connected tree, span kinds: {', '.join(names)}")

    # -- eric metrics: the process-wide registry -----------------------
    print("\n=== eric metrics ===")
    METRICS.dump(store.root)
    print(render_snapshot(METRICS.snapshot()))

    # -- eric doctor --trace: crash forensics --------------------------
    print("=== eric doctor --trace ===")
    print(diagnose_trace(store.root).describe())


if __name__ == "__main__":
    main()
