"""Worker-side shard execution for the distributed farm.

A worker machine receives one shard spec (JSON written by
:meth:`repro.farm.spec.ShardSpec.to_spec`), runs its jobs through the
ordinary :class:`~repro.farm.executor.SimulationFarm` against a local
:class:`~repro.farm.store.ResultStore`, and ships the store's
``results.jsonl`` back for the sharded farm to
:meth:`~repro.farm.store.ResultStore.merge_from`.  ``eric worker
shard.json --store DIR`` is the command-line wrapper; a sharded
:class:`~repro.farm.executor.SimulationFarm` dispatches the same
:func:`run_shard` via a process pool, so local and remote shards
execute byte-identically.

A worker's store is itself resumable: re-running a shard after a crash
serves the already-measured keys from the shard store and only
simulates the remainder.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import EricError
from repro.farm.executor import FarmReport, SimulationFarm
from repro.farm.spec import ShardSpec
from repro.farm.store import ResultStore
from repro.obs.trace import TraceContext, Tracer


def read_shard_trace(path: str | Path) -> dict | None:
    """The optional ``"trace"`` wire context a sharded farm wrote into a
    shard spec file.  Returns None when absent or unreadable — a shard
    written before tracing (or hand-edited) still runs."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    trace = data.get("trace") if isinstance(data, dict) else None
    return trace if isinstance(trace, dict) else None


def load_shard(path: str | Path) -> ShardSpec:
    """Parse and validate a shard spec file.

    Validation recomputes every job key and checks it against the
    spec's declared range, so a worker running drifted code (different
    ``KEY_SCHEMA``, different config semantics) refuses the shard
    instead of silently measuring the wrong thing.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EricError(f"shard spec {path} is not valid JSON: "
                        f"{exc}") from None
    return ShardSpec.from_spec(data)


def run_shard(shard: ShardSpec, store_dir: str | Path, jobs: int = 1,
              force: bool = False, sink=None,
              progress=None, trace: dict | None = None) -> FarmReport:
    """Execute one shard against its own result store.

    The shard's jobs run exactly like any other matrix — store hits are
    served, the rest simulate (``jobs`` worker processes) — and every
    completed record lands in ``store_dir``'s JSONL, ready to be merged
    into the sharded farm's main store.

    The shard runs under a ``worker.shard`` span; ``sink`` (a tracer
    sink, see :mod:`repro.obs.sinks`) sees it along with the shard
    farm's ``farm.sweep`` span and ``farm.job`` events.  With a
    ``trace`` wire context (the sharded farm's ``"trace"`` key in
    shard.json) the spans are also written to ``store_dir``'s own
    trace.jsonl — shipped/merged back alongside the results exactly
    like the records themselves.  The farm runs with ``metrics=False``:
    job counts belong to the sharded farm's process-wide registry, not
    to each shard's.
    """
    parent = TraceContext.from_wire(trace) if trace else None
    tracer = Tracer(store_dir if parent is not None else None)
    if sink is not None:
        tracer.add_sink(sink)
    span = tracer.start("worker.shard", parent=parent,
                        attrs={"shard": shard.index,
                               "shards": shard.count,
                               "jobs": len(shard.jobs)})
    farm = SimulationFarm(store=ResultStore(store_dir), jobs=jobs,
                          progress=progress, tracer=tracer,
                          metrics=False)
    try:
        report = farm.run(shard.jobs, force=force,
                          trace_parent=span.context)
    except BaseException as exc:
        span.finish(ok=False, detail=f"{type(exc).__name__}: {exc}")
        raise
    span.finish(ok=not report.failures,
                detail=f"{report.executed} executed, "
                       f"{len(report.failures)} failed")
    return report


def main(argv: list[str] | None = None) -> int:
    """``eric worker`` / ``python -m repro.farm.worker`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="eric worker",
        description="run one distributed-farm shard against a local "
                    "result store")
    parser.add_argument("shard", help="shard spec JSON (written by "
                                      "eric sweep --shards / ShardPlan)")
    parser.add_argument("--store", required=True,
                        help="per-shard result-store directory; ship its "
                             "results.jsonl back for merging")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes on this machine "
                             "(default 1)")
    parser.add_argument("--force", action="store_true",
                        help="re-measure (and re-persist) stored keys")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    args = parser.parse_args(argv)

    from repro.obs.sinks import StagePrinter

    shard = load_shard(args.shard)
    report = run_shard(shard, args.store, jobs=args.jobs,
                       force=args.force,
                       sink=None if args.quiet
                       else StagePrinter(stages="farm.job"),
                       trace=read_shard_trace(args.shard))
    print(f"shard {shard.index + 1}/{shard.count}: {report.summary()}")
    print(f"store: {ResultStore(args.store).path}")
    return 0 if not report.failures else 1


if __name__ == "__main__":
    import sys

    try:
        raise SystemExit(main())
    except EricError as exc:
        print(f"eric: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
