"""CI smoke: the async fleet scheduler's multiplexing guarantee — two
overlapping 2x2 fleets served concurrently trigger exactly one
simulation per unique farm job key, and each simulated job compiles its
program once (in this process at ``--jobs 1``, only in the workers
above it); a warm resume over the same store executes zero simulations,
compiles nothing and serves 100% store hits.

Farm summaries are appended to ``<store>/smoke-summary.txt`` so a CI
failure can upload the store JSONL plus the per-phase summaries as one
artifact.  Runs locally::

    PYTHONPATH=src python benchmarks/smoke/async_scheduler.py
"""

import argparse
import pathlib
import tempfile

import _bootstrap  # noqa: F401 — wires sys.path for local runs

from repro.core import compiler_driver  # noqa: E402
from repro.farm import ResultStore  # noqa: E402
from repro.service.scheduler import (FleetScheduler,  # noqa: E402
                                     load_fleet_specs)

PROBE_A = "int main() { return 10; }\n"
PROBE_B = "int main() { return 20; }\n"
PROBE_C = "int main() { return 30; }\n"

#: Two 2x2 fleets (2 programs x 2 device seeds each) overlapping in
#: probe-b @ seed 2: 8 job requests, 7 unique keys.
FLEETS_SPEC = {"fleets": [
    {"name": "alpha",
     "programs": [{"name": "probe-a", "source": PROBE_A},
                  {"name": "probe-b", "source": PROBE_B}],
     "device_seeds": [1, 2]},
    {"name": "beta",
     "programs": [{"name": "probe-b", "source": PROBE_B},
                  {"name": "probe-c", "source": PROBE_C}],
     "device_seeds": [2, 3]},
]}
REQUESTED = 8
UNIQUE_JOBS = 7


def count_compiles() -> list:
    """Wrap ``compile_source`` so calls made in this process land in the
    returned list (forked farm workers count in their own copy)."""
    calls = []
    real = compiler_driver.compile_source

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    compiler_driver.compile_source = counting
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store",
                        help="store directory (default: fresh temp dir)")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    store_dir = pathlib.Path(args.store
                             or tempfile.mkdtemp(prefix="farm-async-"))
    summary_path = store_dir / "smoke-summary.txt"

    def narrate(phase: str, report) -> None:
        lines = [f"[{phase}] {report.summary()}"]
        lines += [f"[{phase}]   {fleet.summary()}"
                  for fleet in report.fleets]
        text = "\n".join(lines)
        print(text)
        with summary_path.open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")

    requests = load_fleet_specs(FLEETS_SPEC)
    compiles = count_compiles()

    cold = FleetScheduler(store=ResultStore(store_dir),
                          jobs=args.jobs).run(requests)
    narrate("cold", cold)
    cold.require_ok()
    assert cold.requested == REQUESTED, cold.summary()
    assert cold.unique_jobs == UNIQUE_JOBS, cold.summary()
    # the batching guarantee: one simulation per unique key, no matter
    # how the two fleets' requests interleaved
    assert cold.executed == UNIQUE_JOBS, cold.summary()
    assert cold.store_hits == 0, cold.summary()
    # each executed job compiles once, inside its farm job: here at
    # --jobs 1, in the worker processes above it
    expected = UNIQUE_JOBS if args.jobs == 1 else 0
    assert len(compiles) == expected, (len(compiles), expected)
    compiles.clear()

    warm = FleetScheduler(store=ResultStore(store_dir),
                          jobs=args.jobs).run(requests)
    narrate("warm", warm)
    warm.require_ok()
    assert warm.executed == 0, warm.summary()
    assert warm.store_hits == UNIQUE_JOBS, warm.summary()
    assert all(result.from_store
               for fleet in warm.fleets for result in fleet.results), \
        "warm resume must serve every job from the store"
    # a fully-warm serve also compiles nothing
    assert not compiles, len(compiles)
    print("PASS: async fleet scheduler smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
