"""The PUF Key Generator (PKG) — paper §III.2.

The PKG turns the physical PUF into a stable *PUF key*: it evaluates the
PUF array on a fixed, enrollment-time challenge set with majority voting
and packs the response bits into a key.  The paper's prototype uses
32 instances x 8-bit challenges x 1-bit responses = a 32-bit PUF key
(Table I); wider keys simply use more challenge vectors per instance.

Reliability screening
---------------------
Majority voting alone cannot stabilize a response whose delay margin is
near zero (flip probability ~0.5 regardless of votes).  Deployed delay-PUF
key generators therefore *screen* challenges at enrollment, keeping only
those with a wide margin ("dark-bit masking").  We reproduce that: at
construction (= enrollment), each instance walks a seeded challenge stream
and keeps the first challenge whose noiseless delay margin exceeds
``margin_sigmas`` times the nominal noise sigma.  Using the model's margin
directly (instead of repeated physical reads) keeps enrollment
deterministic per device, which is what a stored enrollment record gives
real systems.

Key failure
-----------
How often a readout misses the noiseless key has a closed form under
the arbiter model, so :meth:`PufKeyGenerator.failure_probability`
computes it exactly instead of sampling readouts.

The PKG also carries the cycle-cost model used by the HDE: evaluating one
challenge costs ``n_stages + ARBITER_LATCH_CYCLES`` cycles per vote
(the edge must traverse every stage before the arbiter latches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.prng import Xoshiro256StarStar
from repro.errors import ConfigError
from repro.puf.arbiter import PufArray
from repro.puf.environment import NOMINAL, Environment

#: Cycles for the arbiter latch to settle after the racing edges arrive.
ARBITER_LATCH_CYCLES = 2

#: Default reliability-screening threshold: keep challenges whose noiseless
#: delay margin is at least this many nominal noise sigmas.
MARGIN_SIGMAS = 4.0

#: Candidates examined per key bit before falling back to the best seen.
MAX_SCREEN_ATTEMPTS = 64


@dataclass(frozen=True)
class PufKeyReadout:
    """Result of one PKG key generation."""

    key: bytes
    cycles: int
    votes: int


class PufKeyGenerator:
    """Stabilized key readout from a :class:`PufArray`.

    Args:
        array: the physical PUF block.
        key_bits: size of the PUF key; must be a multiple of the array
            width (each challenge vector yields ``width`` bits).
        challenge_seed: selects the candidate challenge stream; the chosen
            challenges are the device's enrollment record, not a secret.
        votes: majority votes per response bit at readout time.
        margin_sigmas: enrollment screening threshold (see module docs);
            pass 0 to disable screening (used by reliability ablations).
    """

    def __init__(self, array: PufArray, key_bits: int = 32,
                 challenge_seed: int = 0x4352, votes: int = 11,
                 margin_sigmas: float = MARGIN_SIGMAS) -> None:
        if key_bits % array.width != 0:
            raise ConfigError(
                f"key_bits ({key_bits}) must be a multiple of the array "
                f"width ({array.width})"
            )
        if votes < 1 or votes % 2 == 0:
            raise ConfigError("votes must be a positive odd number")
        if margin_sigmas < 0:
            raise ConfigError("margin_sigmas must be non-negative")
        self.array = array
        self.key_bits = key_bits
        self.votes = votes
        self.challenge_seed = challenge_seed
        self.margin_sigmas = margin_sigmas
        self._challenges = self._enroll()

    def _enroll(self) -> list[list[int]]:
        """Select one screened challenge per (vector, instance) pair."""
        gen = Xoshiro256StarStar(self.challenge_seed)
        limit = (1 << self.array.n_stages) - 1
        vectors = []
        for _ in range(self.key_bits // self.array.width):
            vector = []
            for instance in self.array.instances:
                threshold = self.margin_sigmas * instance.noise_sigma
                best_challenge = 0
                best_margin = -1.0
                for _ in range(MAX_SCREEN_ATTEMPTS):
                    candidate = gen.randint(0, limit)
                    margin = abs(instance.delay_difference(candidate))
                    if margin > best_margin:
                        best_margin = margin
                        best_challenge = candidate
                    if margin >= threshold:
                        break
                vector.append(best_challenge)
            vectors.append(vector)
        return vectors

    @property
    def challenges(self) -> list[list[int]]:
        """The enrolled challenge matrix (one vector per key word)."""
        return [list(v) for v in self._challenges]

    def generate(self, environment: Environment = NOMINAL) -> PufKeyReadout:
        """Read the PUF key (majority-voted) at ``environment``."""
        key_value = 0
        for i, challenges in enumerate(self._challenges):
            word = self.array.evaluate_majority(challenges, self.votes,
                                                environment)
            key_value |= word << (i * self.array.width)
        key = key_value.to_bytes((self.key_bits + 7) // 8, "little")
        return PufKeyReadout(key=key, cycles=self.cycle_cost(),
                             votes=self.votes)

    def failure_probability(self,
                            environment: Environment = NOMINAL) -> float:
        """Exact probability that one :meth:`generate` at
        ``environment`` differs from the noiseless key.

        The noiseless key is the sign of every enrolled challenge's
        delay difference.  Per bit, one vote flips with ``p =
        erfc(|delta| / (sigma * sqrt(2))) / 2`` (0 when ``sigma`` is
        0), the majority of ``votes`` fails with the binomial tail
        ``q``, and the key fails with ``1 - prod(1 - q)``.  The product
        is summed as ``log1p(-q)`` so a rate near 1e-200 stays a
        number instead of rounding to 0.0.  No noise is drawn.
        """
        scale = environment.noise_scale()
        majority = self.votes // 2 + 1
        tail = [(k, math.comb(self.votes, k))
                for k in range(majority, self.votes + 1)]
        log_hold = 0.0
        for challenges in self._challenges:
            for puf, challenge in zip(self.array.instances, challenges):
                sigma = puf.noise_sigma * scale
                if sigma == 0:
                    continue
                p = 0.5 * math.erfc(abs(puf.delay_difference(challenge))
                                    / (sigma * math.sqrt(2.0)))
                q = sum(ways * p ** k * (1.0 - p) ** (self.votes - k)
                        for k, ways in tail)
                log_hold += math.log1p(-q)
        # 0.0 - keeps a key that cannot fail at +0.0, never -0.0
        return 0.0 - math.expm1(log_hold)

    def generate_raw(self, environment: Environment = NOMINAL) -> bytes:
        """Single-shot (no voting) readout — used by reliability studies
        to expose the raw bit error rate that voting hides."""
        key_value = 0
        for i, challenges in enumerate(self._challenges):
            word = self.array.evaluate(challenges, environment)
            key_value |= word << (i * self.array.width)
        return key_value.to_bytes((self.key_bits + 7) // 8, "little")

    def cycle_cost(self) -> int:
        """HDE cycle cost of one full key generation.

        Per challenge vector: all ``width`` instances race in parallel, so
        one vote costs ``n_stages + ARBITER_LATCH_CYCLES`` cycles; votes
        are sequential re-evaluations.  Enrollment screening is a one-time
        provisioning cost and is not charged here.
        """
        per_vote = self.array.n_stages + ARBITER_LATCH_CYCLES
        return len(self._challenges) * self.votes * per_vote
