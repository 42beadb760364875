"""Fig. 6 — compile-time overhead of encrypted compilation.

Paper: +15.22 % average, +33.20 % worst case.

The overhead is paired within one run: each job's baseline is the
compile of its own packaging run.  Fidelity caveat: the paper divides
C++ crypto by an LLVM compile; we divide native crypto (``hashlib``) by
a Python MiniC compile, so the overhead lands at about +3 %.  The bench
asserts the *shape*: a strictly positive, bounded, size-correlated
one-time cost, within four times the paper's average.
"""

from repro.eval import fig6


def test_fig6_compile_time(benchmark, record, farm):
    result = benchmark.pedantic(lambda: fig6.run(farm=farm),
                                rounds=1, iterations=1)
    record("fig6_compile_time", result.render())

    s = result.summary
    # ERIC always costs something, never an order of magnitude
    assert 0.0 < s["avg_overhead_pct"] < 150.0
    assert s["max_overhead_pct"] < 250.0
    # within the paper's order of magnitude
    assert s["avg_overhead_pct"] < s["paper_avg_overhead_pct"] * 4
    for row in result.rows:
        assert row.eric_s > row.baseline_s


def test_fig6_overhead_tracks_signature_cost(record, farm):
    """ERIC's packaging work (sign, encrypt, package) walks the program
    image: its absolute cost must grow with the signed byte count.
    Farm-backed: once measured, the stored records keep this
    deterministic under machine load."""
    result = fig6.run(repeats=3, farm=farm)
    rows = sorted(result.rows, key=lambda r: r.signed_bytes)
    small = sum(r.eric_s - r.baseline_s for r in rows[:3]) / 3
    large = sum(r.eric_s - r.baseline_s for r in rows[-3:]) / 3
    assert large > small


def test_fig6_stage_breakdown(record):
    """Per-stage wall times are recorded and consistent."""
    from repro.core.compiler_driver import EricCompiler
    from repro.core.keys import puf_based_key
    from repro.workloads import get_workload

    compiler = EricCompiler()
    result = compiler.compile_and_package(
        get_workload("fft").source, puf_based_key(b"bench"), name="fft")
    t = result.timings
    assert t.compile_s > 0
    assert t.signature_s > 0
    assert t.encryption_s > 0
    assert t.packaging_s >= 0
    assert t.total_s > t.compile_s
    assert t.eric_overhead_s == (t.signature_s + t.encryption_s
                                 + t.packaging_s)
