"""Arbiter PUF under the additive linear delay model.

An arbiter PUF races a rising edge through two nominally identical paths of
``n`` switch stages; the challenge bit of each stage decides whether the
two signals go straight or cross.  An arbiter latch at the end outputs '1'
if the top signal wins, '0' otherwise (paper Fig. 1).

The standard behavioural model (Lim et al. 2005): the final delay
difference is a linear function of the *parity-transformed* challenge,

    delta(c) = w . phi(c),     phi_i = prod_{j>=i} (1 - 2 c_j),  phi_n = 1

where ``w`` is an (n+1)-vector of per-stage delay differences unique to the
physical instance.  The response is ``1`` if ``delta + noise > 0``.

Fabrication draws ``w`` from a per-device Gaussian; evaluation adds fresh
Gaussian noise whose sigma scales with the operating environment.  This
reproduces every property the paper relies on: per-device uniqueness,
challenge addressability, and slight instability that the PUF Key
Generator's majority voting must absorb.
"""

from __future__ import annotations

from repro.crypto.prng import Xoshiro256StarStar
from repro.errors import ConfigError
from repro.puf.environment import NOMINAL, Environment

#: Standard deviation of per-stage delay differences (arbitrary time units).
FABRICATION_SIGMA = 1.0

#: Nominal evaluation-noise sigma, as a fraction of FABRICATION_SIGMA.
#: ~0.04 reproduces the few-percent raw bit error rate typical of
#: FPGA arbiter PUFs at the nominal operating point.
NOISE_SIGMA = 0.04


class ArbiterPuf:
    """A single arbiter PUF instance: n-bit challenge -> 1-bit response.

    Args:
        n_stages: number of switch stages (challenge bits). The paper's
            prototype uses 8.
        seed: fabrication seed; two instances with different seeds model
            two physically distinct circuits.
        noise_sigma: evaluation-noise sigma at the nominal environment.
    """

    def __init__(self, n_stages: int = 8, seed: int = 0,
                 noise_sigma: float = NOISE_SIGMA) -> None:
        if n_stages < 1:
            raise ConfigError("arbiter PUF needs at least one stage")
        self.n_stages = n_stages
        self.noise_sigma = noise_sigma
        fab = Xoshiro256StarStar(seed)
        # w has one weight per stage plus the arbiter-offset term.
        self._weights = [fab.gauss(0.0, FABRICATION_SIGMA)
                         for _ in range(n_stages + 1)]
        self._noise = Xoshiro256StarStar(seed * 0x9E3779B9 + 0x7F4A7C15)

    def _phi(self, challenge: int) -> list[int]:
        """Parity transform of an integer challenge (bit i = stage i)."""
        bits = [(challenge >> i) & 1 for i in range(self.n_stages)]
        phi = [0] * (self.n_stages + 1)
        phi[self.n_stages] = 1
        acc = 1
        for i in range(self.n_stages - 1, -1, -1):
            acc *= 1 - 2 * bits[i]
            phi[i] = acc
        return phi

    def delay_difference(self, challenge: int) -> float:
        """Noiseless delay difference delta(c); the sign is the ideal
        response.  Exposed for metrics and for tests that need the margin."""
        self._check_challenge(challenge)
        phi = self._phi(challenge)
        return sum(w * p for w, p in zip(self._weights, phi))

    def evaluate(self, challenge: int,
                 environment: Environment = NOMINAL) -> int:
        """One noisy evaluation: returns the response bit (0 or 1)."""
        delta = self.delay_difference(challenge)
        sigma = self.noise_sigma * environment.noise_scale()
        noisy = delta + self._noise.gauss(0.0, sigma)
        return 1 if noisy > 0 else 0

    def evaluate_majority(self, challenge: int, votes: int = 11,
                          environment: Environment = NOMINAL) -> int:
        """Majority vote over ``votes`` fresh evaluations (odd count).

        Every vote sees the same noiseless delay and noise sigma, so both
        are computed once; the votes draw their noise in the same order
        as ``votes`` calls of :meth:`evaluate`.
        """
        if votes < 1 or votes % 2 == 0:
            raise ConfigError("votes must be a positive odd number")
        delta = self.delay_difference(challenge)
        sigma = self.noise_sigma * environment.noise_scale()
        gauss = self._noise.gauss
        ones = sum(1 for _ in range(votes) if delta + gauss(0.0, sigma) > 0)
        return 1 if ones * 2 > votes else 0

    def _check_challenge(self, challenge: int) -> None:
        if not 0 <= challenge < (1 << self.n_stages):
            raise ConfigError(
                f"challenge {challenge:#x} out of range for "
                f"{self.n_stages}-stage PUF"
            )


class PufArray:
    """The paper's PUF block: ``width`` arbiter instances evaluated in
    parallel, one response bit each (Table I: 32 x 8-bit challenge ->
    1-bit response).

    Each instance is a physically separate circuit, so each gets its own
    fabrication seed derived from the device seed.
    """

    def __init__(self, width: int = 32, n_stages: int = 8,
                 device_seed: int = 0,
                 noise_sigma: float = NOISE_SIGMA) -> None:
        if width < 1:
            raise ConfigError("PufArray needs at least one instance")
        self.width = width
        self.n_stages = n_stages
        self.device_seed = device_seed
        self.instances = [
            ArbiterPuf(n_stages=n_stages,
                       seed=_instance_seed(device_seed, i),
                       noise_sigma=noise_sigma)
            for i in range(width)
        ]

    def evaluate(self, challenges: list[int],
                 environment: Environment = NOMINAL) -> int:
        """Evaluate instance ``i`` on ``challenges[i]``; returns the packed
        response word (instance i -> bit i)."""
        self._check(challenges)
        word = 0
        for i, (puf, challenge) in enumerate(zip(self.instances, challenges)):
            word |= puf.evaluate(challenge, environment) << i
        return word

    def evaluate_majority(self, challenges: list[int], votes: int = 11,
                          environment: Environment = NOMINAL) -> int:
        """Majority-voted response word (the PKG's stabilized read)."""
        self._check(challenges)
        word = 0
        for i, (puf, challenge) in enumerate(zip(self.instances, challenges)):
            word |= puf.evaluate_majority(challenge, votes, environment) << i
        return word

    def _check(self, challenges: list[int]) -> None:
        if len(challenges) != self.width:
            raise ConfigError(
                f"expected {self.width} challenges, got {len(challenges)}"
            )


def _instance_seed(device_seed: int, index: int) -> int:
    """Decorrelate per-instance fabrication seeds (SplitMix-style mix)."""
    x = (device_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9)
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x
