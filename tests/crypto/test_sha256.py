"""SHA-256 correctness: FIPS vectors, hashlib cross-check, streaming."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import SHA256, blocks_for_length, sha256


class TestKnownVectors:
    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(msg).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_million_a(self):
        h = SHA256()
        for _ in range(1000):
            h.update(b"a" * 1000)
        assert h.hexdigest() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestStreaming:
    def test_update_split_equivalence(self):
        data = bytes(range(256)) * 5
        whole = SHA256(data).digest()
        split = SHA256()
        split.update(data[:100])
        split.update(data[100:101])
        split.update(data[101:])
        assert split.digest() == whole

    def test_digest_does_not_consume_state(self):
        h = SHA256(b"hello")
        first = h.digest()
        assert h.digest() == first
        h.update(b" world")
        assert h.digest() == sha256(b"hello world")

    def test_copy_is_independent(self):
        h = SHA256(b"prefix")
        clone = h.copy()
        clone.update(b"-a")
        h.update(b"-b")
        assert clone.digest() == sha256(b"prefix-a")
        assert h.digest() == sha256(b"prefix-b")

    def test_blocks_processed_counter(self):
        h = SHA256()
        h.update(b"x" * 64)
        assert h.blocks_processed == 1
        h.update(b"x" * 63)
        assert h.blocks_processed == 1
        h.update(b"x")
        assert h.blocks_processed == 2


class TestAgainstHashlib:
    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=300), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_streaming_matches_hashlib(self, chunks):
        ours = SHA256()
        ref = hashlib.sha256()
        for chunk in chunks:
            ours.update(chunk)
            ref.update(chunk)
        assert ours.digest() == ref.digest()

    @pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128])
    def test_padding_boundaries(self, length):
        data = b"\xAB" * length
        assert sha256(data) == hashlib.sha256(data).digest()


class TestBlockCount:
    @pytest.mark.parametrize(
        "length,expected",
        [(0, 1), (1, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)],
    )
    def test_blocks_for_length(self, length, expected):
        assert blocks_for_length(length) == expected

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=50, deadline=None)
    def test_blocks_for_length_matches_actual(self, length):
        # absorbed whole blocks, and the padded message (0x80 byte plus
        # 8-byte length) rounded up to whole blocks
        assert SHA256(b"z" * length).blocks_processed == length // 64
        assert blocks_for_length(length) == -(-(length + 9) // 64)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            blocks_for_length(-1)
