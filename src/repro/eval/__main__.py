"""``python -m repro.eval [experiment ...]`` — regenerate paper results.

With no experiment arguments, runs everything (table1, table2, fig5,
fig6, fig7).  The figure experiments measure through the simulation
farm: ``--jobs N`` fans their workload matrices out over N worker
processes, ``--store DIR`` resumes from (and adds to) a persistent
result store, ``--shards N`` distributes the matrices over N
coordinated workers with per-shard stores merged back into ``--store``,
and ``--force`` re-measures stored keys.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval import EXPERIMENTS

#: Experiments whose run() sources measurements through repro.farm.
FARM_EXPERIMENTS = ("fig5", "fig6", "fig7")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="regenerate the paper's tables and figures")
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help=f"subset to run (default: all of "
                             f"{', '.join(EXPERIMENTS)})")
    parser.add_argument("--jobs", type=int, default=1,
                        help="simulation-farm worker processes (default 1)")
    parser.add_argument("--store", metavar="DIR",
                        help="persistent farm result store to resume from "
                             "(default: measure in-memory)")
    parser.add_argument("--shards", type=int, default=0,
                        help="shard farm matrices over N coordinated "
                             "worker processes (requires --store)")
    parser.add_argument("--force", action="store_true",
                        help="re-measure even stored results")
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    farm = None
    if any(name in FARM_EXPERIMENTS for name in names):
        # one farm for the whole invocation: fig5/6/7 share the worker
        # pool budget and, when --store is given, one result store
        from repro.farm import ResultStore, SimulationFarm
        store = ResultStore(args.store) if args.store else None
        if store is not None and store.skipped_warning():
            print(f"warning: {store.skipped_warning()}", file=sys.stderr)
        if args.shards and store is None:
            print("--shards needs --store: shard stores merge into "
                  "the main result store", file=sys.stderr)
            return 2
        farm = SimulationFarm(store=store, jobs=args.jobs,
                              shards=args.shards)
    for name in names:
        if name in FARM_EXPERIMENTS:
            result = EXPERIMENTS[name].run(farm=farm, force=args.force)
        else:
            result = EXPERIMENTS[name].run()
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
