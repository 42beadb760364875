"""Key Management Unit and Signature Generator units."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.core.keys import (
    KeyManagementUnit,
    group_mask,
    puf_based_key,
    recover_group_key,
)
from repro.core.signature import (
    StreamingSignatureGenerator,
    compute_signature,
)
from repro.crypto.sha256 import ROUNDS_PER_BLOCK
from repro.errors import ConfigError

#: signed load metadata: entry and both section bases (u64), then the
#: text and data lengths (u32)
METADATA_BYTES = 32


class TestPufBasedKey:
    def test_deterministic(self):
        assert puf_based_key(b"\x01\x02") == puf_based_key(b"\x01\x02")

    def test_puf_key_separates(self):
        assert puf_based_key(b"\x01") != puf_based_key(b"\x02")

    def test_epoch_rekeys(self):
        a = puf_based_key(b"\x01", b"epoch-0")
        b = puf_based_key(b"\x01", b"epoch-1")
        assert a != b

    def test_raw_key_not_recoverable_trivially(self):
        # the conversion is a hash: the pbk bytes never contain the raw key
        raw = b"\xAA\xBB\xCC\xDD"
        assert raw not in puf_based_key(raw)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            puf_based_key(b"")
        with pytest.raises(ConfigError):
            puf_based_key(b"x", b"")


class TestKeyManagementUnit:
    def setup_method(self):
        self.kmu = KeyManagementUnit(puf_based_key(b"device-a"))

    def test_purpose_separation(self):
        assert self.kmu.encryption_key() != self.kmu.signature_key()

    def test_keys_are_32_bytes(self):
        assert len(self.kmu.encryption_key()) == 32
        assert len(self.kmu.signature_key()) == 32

    def test_ciphers_differ_between_purposes(self):
        data = bytes(64)
        text = self.kmu.text_cipher("xor-repeating").transform(data)
        sig = self.kmu.signature_cipher("xor-repeating").transform(data)
        assert text != sig

    def test_wrong_pbk_size_rejected(self):
        with pytest.raises(ConfigError):
            KeyManagementUnit(b"short")

    def test_fingerprint_stable_and_short(self):
        again = KeyManagementUnit(puf_based_key(b"device-a"))
        assert self.kmu.fingerprint() == again.fingerprint()
        assert len(self.kmu.fingerprint()) == 16


class TestGroupHelperData:
    def test_mask_roundtrip(self):
        pbk = puf_based_key(b"dev")
        group_key = puf_based_key(b"group")
        mask = group_mask(pbk, group_key)
        assert recover_group_key(pbk, mask) == group_key

    def test_mask_does_not_leak_either_key(self):
        pbk = puf_based_key(b"dev")
        group_key = puf_based_key(b"group")
        mask = group_mask(pbk, group_key)
        assert mask != pbk
        assert mask != group_key

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            group_mask(b"aa", b"a")
        with pytest.raises(ConfigError):
            recover_group_key(b"aa", b"a")


def make_program(body="nop\n"):
    return assemble(f"_start:\n{body}li a7, 93\necall\n")


class TestSignature:
    def test_deterministic(self):
        program = make_program()
        assert compute_signature(program) == compute_signature(program)

    def test_text_change_changes_signature(self):
        a = make_program("addi a0, zero, 1\n")
        b = make_program("addi a0, zero, 2\n")
        assert compute_signature(a) != compute_signature(b)

    def test_entry_is_bound(self):
        from dataclasses import replace
        program = make_program()
        moved = replace(program, entry=program.entry + 4)
        assert compute_signature(program) != compute_signature(moved)

    def test_data_is_bound(self):
        from dataclasses import replace
        program = make_program()
        tweaked = replace(program, data=b"\x01")
        assert compute_signature(program) != compute_signature(tweaked)

    def test_streaming_matches_one_shot(self):
        program = make_program("addi a0, zero, 3\n")
        generator = StreamingSignatureGenerator.for_program(program)
        generator.absorb(program.text)
        generator.absorb(program.data)
        assert generator.digest() == compute_signature(program)

    def test_cycle_cost_positive_and_monotonic(self):
        small = make_program()
        large = make_program("addi a0, a0, 1\n" * 200)
        def cycles(p):
            g = StreamingSignatureGenerator.for_program(p)
            g.absorb(p.text)
            g.absorb(p.data)
            g.digest()
            return g.cycles
        assert 0 < cycles(small) < cycles(large)

    @given(text=st.binary(max_size=700), data=st.binary(max_size=64),
           entry=st.integers(0, 2**64 - 1),
           cuts=st.lists(st.integers(0, 700), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_streaming_any_split_matches_one_shot_and_cycle_model(
            self, text, data, entry, cuts):
        program = Program(text=text, data=data, text_base=0x1000,
                          data_base=0x8000, entry=entry, layout=())
        generator = StreamingSignatureGenerator.for_program(program)
        bounds = sorted({0, len(text), *(min(c, len(text)) for c in cuts)})
        for lo, hi in zip(bounds, bounds[1:]):
            generator.absorb(text[lo:hi])
        assert generator.digest() == compute_signature(program)
        assert generator.cycles == \
            ((METADATA_BYTES + len(text)) // 64 + 1) * ROUNDS_PER_BLOCK
