"""Fig. 6 — compile-time overhead of encrypted compilation.

Paper headline: +33.20 % in the worst case, +15.22 % on average, measured
as (time to compile+sign+encrypt+package) / (time to compile with the
stock compiler).

The overhead is paired within one run: a job's ``baseline_s`` is the
compile inside the packaging run that ``package_total_s`` times, so
numerator and denominator share one machine phase.  ERIC's extra
work is a few percent of the compile, below the spread between two
separately timed compiles.

Fidelity note: the reproduction lands at about +3 % against the paper's
+15.22 % because it divides native crypto (``hashlib``) by a Python
MiniC compile, while the paper divides C++ crypto by an LLVM compile.
The claim under test — a strictly positive, bounded one-time packaging
cost that grows with program size — holds in both.

Timing measurements are farm jobs (min over ``repeats``), so a
populated result store replays the figure with the wall times of the
machine that originally measured it — which is exactly what makes the
committed ``benchmarks/results/fig6_compile_time.txt`` regenerate
byte-identically instead of churning on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EricConfig
from repro.eval.report import format_table
from repro.farm import JobMatrix, SimParams, SimulationFarm
from repro.workloads import all_workloads

_DEVICE_SEED = 0xE6A1


@dataclass
class Fig6Row:
    name: str
    baseline_s: float
    eric_s: float
    signed_bytes: int

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.eric_s / self.baseline_s - 1.0)


@dataclass
class Fig6Result:
    rows: list[Fig6Row] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        overheads = [r.overhead_pct for r in self.rows]
        return {
            "avg_overhead_pct": sum(overheads) / len(overheads),
            "max_overhead_pct": max(overheads),
            "paper_avg_overhead_pct": 15.22,
            "paper_max_overhead_pct": 33.20,
        }

    def render(self) -> str:
        table_rows = [
            [r.name, f"{r.baseline_s * 1e3:.1f}", f"{r.eric_s * 1e3:.1f}",
             f"{r.overhead_pct:+.2f}%"]
            for r in self.rows
        ]
        s = self.summary
        body = format_table(
            ["workload", "baseline ms", "ERIC ms", "overhead"],
            table_rows,
            title="Fig. 6: Compile-time, ERIC vs baseline compiler",
        )
        tail = (
            f"measured: avg +{s['avg_overhead_pct']:.2f}% / "
            f"max +{s['max_overhead_pct']:.2f}%\n"
            f"paper: avg +{s['paper_avg_overhead_pct']:.2f}% / "
            f"max +{s['paper_max_overhead_pct']:.2f}%"
        )
        return body + "\n" + tail


def matrix(config: EricConfig | None = None,
           repeats: int = 5) -> JobMatrix:
    """Every workload, packaging only, min-of-``repeats`` timings."""
    return JobMatrix(
        workloads=tuple(all_workloads()),
        configs=(config or EricConfig(),),
        params=(SimParams(device_seed=_DEVICE_SEED),),
        simulate=False,
        repeats=repeats,
    )


def run(config: EricConfig | None = None, repeats: int = 5, *,
        farm: SimulationFarm | None = None, jobs: int = 1,
        force: bool = False) -> Fig6Result:
    farm = farm or SimulationFarm(jobs=jobs)
    report = farm.run(matrix(config, repeats), force=force)
    report.require_ok()
    result = Fig6Result()
    for job in report.results:
        record = job.record
        result.rows.append(Fig6Row(
            name=job.spec.display_name,
            baseline_s=record.baseline_s,
            eric_s=record.package_total_s,
            signed_bytes=record.signed_bytes,
        ))
    return result
