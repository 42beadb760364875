"""Standard PUF quality metrics.

These are the figures of merit every PUF paper reports (Maiti et al.):

* **uniformity** — fraction of '1' responses of one device over a challenge
  set; ideal 0.5.
* **inter-chip uniqueness** — mean pairwise fractional Hamming distance of
  responses between devices on the same challenges; ideal 0.5.
* **intra-chip reliability** — 1 - mean fractional Hamming distance between
  repeated evaluations on the same device; ideal 1.0.
* **bit-aliasing** — per-challenge fraction of devices answering '1';
  ideal 0.5 for every challenge.

The ablation bench `test_ablation_puf_reliability` sweeps environment and
voting policy through these metrics.
"""

from __future__ import annotations

from statistics import mean

from repro.errors import ConfigError
from repro.puf.arbiter import ArbiterPuf
from repro.puf.environment import NOMINAL, Environment


def _responses(puf: ArbiterPuf, challenges: list[int],
               environment: Environment) -> list[int]:
    return [puf.evaluate(c, environment) for c in challenges]


def uniformity(puf: ArbiterPuf, challenges: list[int],
               environment: Environment = NOMINAL) -> float:
    """Fraction of 1-bits in the response set (ideal 0.5)."""
    if not challenges:
        raise ConfigError("challenge set must be non-empty")
    responses = _responses(puf, challenges, environment)
    return sum(responses) / len(responses)


def inter_chip_uniqueness(pufs: list[ArbiterPuf], challenges: list[int],
                          environment: Environment = NOMINAL) -> float:
    """Mean pairwise fractional Hamming distance between devices (ideal 0.5)."""
    if len(pufs) < 2:
        raise ConfigError("need at least two devices")
    if not challenges:
        raise ConfigError("challenge set must be non-empty")
    all_responses = [_responses(p, challenges, environment) for p in pufs]
    distances = []
    for i in range(len(pufs)):
        for j in range(i + 1, len(pufs)):
            diff = sum(a != b for a, b in
                       zip(all_responses[i], all_responses[j]))
            distances.append(diff / len(challenges))
    return mean(distances)


def intra_chip_reliability(puf: ArbiterPuf, challenges: list[int],
                           repeats: int = 10,
                           environment: Environment = NOMINAL) -> float:
    """1 - mean fractional Hamming distance across repeated reads (ideal 1.0)."""
    if repeats < 2:
        raise ConfigError("need at least two repeats")
    if not challenges:
        raise ConfigError("challenge set must be non-empty")
    reference = _responses(puf, challenges, environment)
    distances = []
    for _ in range(repeats - 1):
        again = _responses(puf, challenges, environment)
        diff = sum(a != b for a, b in zip(reference, again))
        distances.append(diff / len(challenges))
    return 1.0 - mean(distances)


def bit_aliasing(pufs: list[ArbiterPuf], challenges: list[int],
                 environment: Environment = NOMINAL) -> list[float]:
    """Per-challenge fraction of devices answering '1' (ideal 0.5 each)."""
    if not pufs:
        raise ConfigError("need at least one device")
    if not challenges:
        raise ConfigError("challenge set must be non-empty")
    per_challenge = []
    for challenge in challenges:
        ones = sum(p.evaluate(challenge, environment) for p in pufs)
        per_challenge.append(ones / len(pufs))
    return per_challenge


def key_failure_probability(readouts: list[bytes]) -> float:
    """Fraction of readouts that differ from the majority readout.

    Feed it repeated :meth:`PufKeyGenerator.generate` /
    ``generate_raw`` outputs to estimate how often key reconstruction
    would fail under a given voting policy and environment.  While the
    noiseless key is the most frequent readout this is the Monte Carlo
    estimate of :meth:`PufKeyGenerator.failure_probability`, and the
    tests use it as that method's oracle.
    """
    if not readouts:
        raise ConfigError("need at least one readout")
    counts: dict[bytes, int] = {}
    for r in readouts:
        counts[r] = counts.get(r, 0) + 1
    majority = max(counts.values())
    return 1.0 - majority / len(readouts)
