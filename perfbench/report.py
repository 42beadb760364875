"""Layer report: one untraced and one traced run of a workload, side by
side, with each layer's share of unit time and the tracing overhead.

    python3 perfbench/report.py --workload sweep-cold --seed 1 --seconds 25

Tracing overhead is reported twice: as measured, ``1 - traced
work_per_s / untraced work_per_s`` for the same workload, seed and
length, and as the traced run's own estimate ``trace.overhead`` (spans
per unit times the calibrated cost of one wrapper, plus attribute-hook
time).  On a machine whose speed drifts between runs the measured gap
of one pair carries that drift; the estimate does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    plain = measure(args.workload, args.seed, args.seconds, 0)["metrics"]
    traced = measure(args.workload, args.seed, args.seconds, 1)["metrics"]
    untraced_rate = plain["work_per_s"]["value"]
    traced_rate = traced["trace.work_per_s"]["value"]
    print(f"{args.workload} seed {args.seed}: {untraced_rate:.3f} units/s "
          f"untraced, {traced_rate:.3f} traced; tracing overhead "
          f"{1 - traced_rate / untraced_rate:+.1%} measured, "
          f"{traced['trace.overhead']['value']:.2%} estimated")
    unit_s = traced["trace.unit_s"]["value"]
    print(f"unit time {unit_s * 1e3:.1f} ms (traced); share by layer:")
    shares = {name[len("share."):]: metric["value"]
              for name, metric in traced.items()
              if name.startswith("share.")}
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share:
            print(f"  {layer:<10} {share:6.1%}")
    print("per-layer metrics:")
    for name, metric in traced.items():
        if not name.startswith("share.") and metric["value"]:
            print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
