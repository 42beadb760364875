"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload fleet-rollout --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Lines before it give the
simulated-statistics digest and a machine-speed probe (diagnostics, not
metrics).  See perfbench/README.md for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Setups per run: two in fresh child processes plus the measuring
#: process's own; setup_s is their median.
SETUP_REPEATS = 3
#: where traced runs write their spans
TRACE_DIR = ROOT / ".perfbench_traces"
CHILD_TIMEOUT_S = 30


def probe_s() -> float:
    """A fixed pure-Python loop, no repository code: how fast the
    machine runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


class Recorder:
    """Times units on the benchmark's clock and tells the tracer which
    unit (or harness phase) is running."""

    def __init__(self, tracer, digest_units: int) -> None:
        self.tracer = tracer
        self.digest_units = digest_units
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.stats: list = []
        self.timed_s = 0.0
        self._begin = 0.0
        self._mark = 0.0
        self._paused = 0.0

    def _phase(self, phase: str, unit=None) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.unit = unit

    def begin(self) -> None:
        self._paused = 0.0
        self._phase("unit", len(self.latencies))
        self._begin = self._mark = time.perf_counter()

    def unit_done(self, payload, check) -> None:
        end = time.perf_counter()
        self._phase("harness")
        self.latencies.append(end - self._mark)
        ok, stats = check(payload)
        if not ok:
            self.failed += 1
            if "error" in stats and len(self.errors) < 5:
                self.errors.append(str(stats["error"]))
        if len(self.stats) < self.digest_units:
            self.stats.append(stats)
        self._mark = time.perf_counter()
        self._paused += self._mark - end
        self._phase("unit", len(self.latencies))

    def end(self) -> None:
        self.timed_s += time.perf_counter() - self._begin - self._paused
        self._phase("harness")


def child_setups(args) -> list[float]:
    """Set the workload up in fresh processes; returns their setup_s."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setups = [] if (args.setup_only or args.trace) else child_setups(args)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], workdir, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workload_cls, workdir: Path, setups: list[float]) -> int:
    setup_start = time.perf_counter()
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workload_cls(args.seed, workdir)
    workload.setup()
    setups.append(time.perf_counter() - setup_start)
    if args.setup_only:
        print(json.dumps({"setup_s": setups[-1]}))
        return 0

    rec = Recorder(tracer, workload.digest_units)
    if tracer is not None:
        tracer.phase = "harness"
    probe_before = probe_s()
    loop_start = time.perf_counter()
    rounds = 0
    while rounds < workload.min_rounds \
            or time.perf_counter() - loop_start < args.seconds:
        workload.run_round(rounds, rec)
        rounds += 1
        if rounds == workload.min_rounds:
            # peak over set-up and a fixed amount of work: later rounds
            # would let a faster commit show a higher peak
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = probe_s()

    attempted = len(rec.latencies)
    correct_units = attempted - rec.failed
    work_per_s = correct_units / rec.timed_s
    digest = sha256(json.dumps(
        {"units": rec.stats, "extra": workload.digest_extra()},
        sort_keys=True).encode()).hexdigest()
    print(f"digest: {digest} over the first {len(rec.stats)} unit(s)")
    print(f"probe_s: before={probe_before:.4f} after={probe_after:.4f}")
    print(f"units: {attempted} in {rounds} round(s), {rec.failed} failed "
          f"(fail_frac {rec.failed / attempted:.4f}), timed "
          f"{rec.timed_s:.3f} s, p50 "
          f"{statistics.median(rec.latencies):.4f} s")
    for error in rec.errors:
        print(f"error: {error}")

    if tracer is not None:
        span_cost_s = tracer.calibrate()
        tracer.uninstall()
        if tracer.missing or tracer.hook_errors:
            print(f"untraced: {', '.join(tracer.missing) or '-'}; "
                  f"{tracer.hook_errors} hook error(s)")
        from perfbench.layers import per_layer_metrics
        metrics = per_layer_metrics(tracer, rec, work_per_s, span_cost_s)
        TRACE_DIR.mkdir(exist_ok=True)
        spans = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans: {spans}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "work_per_s": (work_per_s, "1/s"),
            "call_s.p90": (quantile(rec.latencies, 0.9), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
