"""CI smoke: the PR-3 axes — a 2x2 (environment x overlapped-HDE)
matrix measured with ``analyze=True`` must carry attacker outcomes in
every record and stay at 100% hits on a warm-store resume.

Runs locally::

    PYTHONPATH=src python benchmarks/smoke/analyze_environments.py
"""

import argparse
import tempfile

import _bootstrap  # noqa: F401 — wires sys.path for local runs

from repro.farm import JobMatrix, ResultStore, SimulationFarm  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store",
                        help="store directory (default: fresh temp dir)")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    store_dir = args.store or tempfile.mkdtemp(prefix="farm-analyze-")

    matrix = JobMatrix.from_spec({
        "programs": [{"name": "probe",
                      "source": "int main() { return 0; }\n"}],
        "environments": [{}, {"temperature_c": 85.0,
                              "voltage": 0.9}],
        "overlapped_hde": [False, True],
        "simulate": False,
        "analyze": True,
    })
    assert matrix.job_count == 4, "environment x HDE-mode 2x2"

    cold = SimulationFarm(store=ResultStore(store_dir),
                          jobs=args.jobs).run(matrix)
    cold.require_ok()
    assert cold.executed == 4 and cold.hits == 0, cold.summary()
    for record in cold.records:
        assert record.key_failure < 1e-6, "screened key unstable"
        assert record.analysis["dynamic"], "no attacker outcomes"
        assert all(not d["leaked"]
                   for d in record.analysis["dynamic"])
    print("cold:", cold.summary())

    warm = SimulationFarm(store=ResultStore(store_dir),
                          jobs=args.jobs).run(matrix)
    warm.require_ok()
    assert warm.executed == 0, warm.summary()
    assert warm.hit_rate == 1.0, warm.summary()
    print("resumed:", warm.summary())
    print("PASS: analyze/environments smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
