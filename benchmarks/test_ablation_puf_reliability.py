"""Ablation — PUF key reliability vs noise, voting, environment.

The paper's PKG must hand the Decryption Unit the *same* key every boot;
this sweep quantifies how enrollment screening + majority voting buy that
stability, and where the design would break (extreme noise corners).

Every point is a content-addressed farm job: the worker records
``FarmRecord.key_failure`` (the exact probability that a PKG readout at
the job's operating point misses the noiseless key) and ``key_digest``
for every job, so the whole sweep resumes from the committed store with
zero simulations.  Rates print in scientific notation: a stable key
fails far less often than once per million boots, and the tables show
by how much.
"""

from repro.eval.report import format_table
from repro.farm import JobMatrix, SimParams
from repro.puf.environment import Environment

_SEED = 0x5EED

#: Reliability jobs only need the device's PKG, not a real workload, so
#: a trivial probe program keeps the packaging stage negligible.
_PROBE = ("pkg-probe", "int main() { return 0; }\n")


def _params(noise=0.04, votes=11, margin_sigmas=4.0,
            environment=Environment(), seed=_SEED) -> SimParams:
    return SimParams(device_seed=seed, puf_noise_sigma=noise,
                     puf_votes=votes, puf_margin_sigmas=margin_sigmas,
                     environment=environment)


def test_voting_and_screening_sweep(benchmark, record, farm):
    grid = [(noise, votes)
            for noise in (0.04, 0.15, 0.40) for votes in (1, 5, 11)]
    matrix = JobMatrix(
        programs=(_PROBE,),
        params=tuple(_params(noise, votes, margin_sigmas=margin)
                     for noise, votes in grid for margin in (4.0, 0.0)),
        simulate=False)

    report = benchmark.pedantic(lambda: farm.run(matrix),
                                rounds=1, iterations=1)
    report.require_ok()
    failure = [r.record.key_failure for r in report.results]
    rows = [(noise, votes, failure[2 * i], failure[2 * i + 1])
            for i, (noise, votes) in enumerate(grid)]

    record("ablation_puf_reliability", format_table(
        ["noise sigma", "votes", "fail rate (screened)",
         "fail rate (unscreened)"],
        [[f"{n:.2f}", v, f"{s:.2e}", f"{u:.2e}"] for n, v, s, u in rows],
        title="PUF key failure probability",
    ))

    by_key = {(n, v): (s, u) for n, v, s, u in rows}
    # nominal noise + paper voting: keys must be rock stable, fewer
    # than one failed rebuild per million boots
    assert by_key[(0.04, 11)][0] < 1e-6
    # screening can only help (or tie) at every point of the sweep
    assert all(s <= u for _, _, s, u in rows)
    # more votes never hurt at fixed noise (screened column)
    for noise in (0.04, 0.15, 0.40):
        assert by_key[(noise, 11)][0] <= by_key[(noise, 1)][0]


def test_environment_sweep(record, farm):
    corners = [
        ("nominal 25C/1.00V", Environment()),
        ("hot 85C/1.00V", Environment(temperature_c=85.0)),
        ("hot+brownout 85C/0.90V", Environment(temperature_c=85.0,
                                               voltage=0.90)),
        ("extreme 125C/0.80V", Environment(temperature_c=125.0,
                                           voltage=0.80)),
    ]
    matrix = JobMatrix(
        programs=(_PROBE,),
        params=tuple(_params(environment=env) for _, env in corners),
        simulate=False)
    report = farm.run(matrix)
    report.require_ok()

    rows = [(label, env.noise_scale(), result.record.key_failure)
            for (label, env), result in zip(corners, report.results)]
    record("ablation_puf_environment", format_table(
        ["environment", "noise scale", "key failure rate"],
        [[l, f"{s:.2f}x", f"{f:.2e}"] for l, s, f in rows],
        title="PKG stability across operating points (paper's KMU "
              "environment hooks)",
    ))
    # nominal and mildly hot corners stay stable with Table I voting
    assert rows[0][2] < 1e-6
    assert rows[1][2] < 1e-6
    # noise scale is monotone across the sweep
    scales = [s for _, s, _ in rows]
    assert scales == sorted(scales)


def test_wrong_device_never_reconstructs(farm):
    """Uniqueness at the key level: 20 different dies, 20 distinct keys
    (compared via the records' enrollment-key digests)."""
    matrix = JobMatrix(
        programs=(_PROBE,),
        params=tuple(_params(seed=seed) for seed in range(20)),
        simulate=False)
    report = farm.run(matrix)
    report.require_ok()
    digests = {r.record.key_digest for r in report.results}
    assert len(digests) >= 19  # one 32-bit collision in 20 is already rare
