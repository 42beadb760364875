"""PufKeyGenerator.failure_probability: the exact key-failure rate
against its Monte Carlo oracle, and the properties it holds exactly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.puf.arbiter import PufArray
from repro.puf.environment import Environment
from repro.puf.key_generator import PufKeyGenerator
from repro.puf.metrics import key_failure_probability

#: the PUF-reliability ablation's die
SEED = 0x5EED

#: readouts per Monte Carlo point
READOUTS = 2000

#: two-sided 99% normal quantile
Z99 = 2.576


def noiseless_key(pkg: PufKeyGenerator) -> bytes:
    """The key a noise-free device reads: the sign of every enrolled
    challenge's delay difference, packed as ``generate`` packs it."""
    value = 0
    width = pkg.array.width
    for word, challenges in enumerate(pkg.challenges):
        for bit, (puf, challenge) in enumerate(
                zip(pkg.array.instances, challenges)):
            if puf.delay_difference(challenge) > 0:
                value |= 1 << (word * width + bit)
    return value.to_bytes((pkg.key_bits + 7) // 8, "little")


class TestAgainstMonteCarlo:
    """Unscreened points, where the rate is large enough to measure
    with 2,000 readouts.  Each readout draws from a freshly fabricated
    array's own noise stream, so every point is deterministic."""

    @pytest.mark.parametrize("noise, votes, environment", [
        (0.15, 1, Environment()),
        (0.15, 5, Environment()),
        (0.40, 1, Environment()),
        (0.40, 5, Environment()),
        (0.04, 1, Environment(temperature_c=125.0, voltage=0.8)),
    ])
    def test_readouts_fall_inside_the_99_percent_interval(
            self, noise, votes, environment):
        pkg = PufKeyGenerator(PufArray(device_seed=SEED, noise_sigma=noise),
                              votes=votes, margin_sigmas=0.0)
        exact = pkg.failure_probability(environment)
        readouts = [pkg.generate(environment).key for _ in range(READOUTS)]
        key = noiseless_key(pkg)
        measured = sum(readout != key for readout in readouts) / READOUTS
        # the most frequent readout is the noiseless key, so the
        # metrics oracle measures the same rate
        assert key_failure_probability(readouts) \
            == pytest.approx(measured, abs=1e-12)
        slack = Z99 * math.sqrt(exact * (1.0 - exact) / READOUTS)
        assert abs(measured - exact) <= slack


def _pkg(seed, noise, votes=11, margin=4.0) -> PufKeyGenerator:
    return PufKeyGenerator(PufArray(device_seed=seed, noise_sigma=noise),
                           votes=votes, margin_sigmas=margin)


_SEEDS = st.integers(min_value=0, max_value=2**32)
_NOISE = st.floats(min_value=0.01, max_value=1.0)
_MARGINS = st.sampled_from([0.0, 1.0, 2.0, 4.0])
_VOTES = st.sampled_from([1, 3, 5, 7, 11, 15])
_ENVIRONMENTS = st.builds(
    Environment,
    temperature_c=st.floats(min_value=-40.0, max_value=150.0),
    voltage=st.floats(min_value=0.7, max_value=1.3))


class TestExactProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, noise=_NOISE, votes=_VOTES, margin=_MARGINS,
           environment=_ENVIRONMENTS)
    def test_is_a_probability(self, seed, noise, votes, margin,
                              environment):
        value = _pkg(seed, noise, votes, margin).failure_probability(
            environment)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, noise=_NOISE, margin=_MARGINS,
           votes=st.lists(_VOTES, min_size=2, max_size=2, unique=True),
           environment=_ENVIRONMENTS)
    def test_more_votes_never_raise_it(self, seed, noise, margin, votes,
                                       environment):
        # enrollment does not depend on votes: both read the same bits
        array = PufArray(device_seed=seed, noise_sigma=noise)
        fewer, more = sorted(votes)
        assert PufKeyGenerator(array, votes=more, margin_sigmas=margin) \
            .failure_probability(environment) \
            <= PufKeyGenerator(array, votes=fewer, margin_sigmas=margin) \
            .failure_probability(environment)

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, noise=_NOISE, votes=_VOTES, margin=_MARGINS,
           temperature=st.floats(min_value=25.0, max_value=150.0),
           hotter_by=st.floats(min_value=1.0, max_value=50.0),
           voltage=st.floats(min_value=0.7, max_value=1.3))
    def test_more_noise_never_lowers_it(self, seed, noise, votes, margin,
                                        temperature, hotter_by, voltage):
        # enrollment screens at the nominal sigma, so a hotter die reads
        # the same challenges with more noise
        cool = Environment(temperature_c=temperature, voltage=voltage)
        hot = Environment(temperature_c=temperature + hotter_by,
                          voltage=voltage)
        assert hot.noise_scale() > cool.noise_scale()
        pkg = _pkg(seed, noise, votes, margin)
        assert pkg.failure_probability(cool) \
            <= pkg.failure_probability(hot)

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, votes=_VOTES, margin=_MARGINS,
           environment=_ENVIRONMENTS)
    def test_a_noiseless_die_never_fails(self, seed, votes, margin,
                                         environment):
        value = _pkg(seed, 0.0, votes, margin).failure_probability(
            environment)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestTinyRates:
    def test_a_table_one_key_reads_a_number_not_zero(self):
        # 1 - prod(1 - q) would round these to exactly 0.0
        for seed in (0xFA53, SEED):
            value = _pkg(seed, 0.04).failure_probability()
            assert 0.0 < value < 1e-30
