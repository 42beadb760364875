"""SHA-256 (FIPS 180-2 / FIPS 180-4) over :mod:`hashlib`.

The paper's Signature Generator runs SHA-256 over the compiled program
before encryption (§III.1) and again, streaming, inside the Hardware
Decryption Engine as instructions are decrypted (§III.2).  Both uses need
an incremental API, so :class:`SHA256` mirrors the familiar
``update()``/``digest()`` shape.

The paper's hash is native code on both sides (C++ in the compiler, a
hardware core in the HDE), so this module wraps the native
``hashlib.sha256``.  Nothing simulated depends on the rounds themselves:
the HDE cycle model charges by length alone, one cycle per round of
every 512-bit block (:data:`ROUNDS_PER_BLOCK`, :attr:`SHA256.blocks_processed`,
:func:`blocks_for_length`).
"""

from __future__ import annotations

import hashlib

BLOCK_SIZE = 64
DIGEST_SIZE = 32

# Number of compression rounds per 512-bit block; exported because the HDE
# cycle model charges one cycle per round (see repro.core.hde).
ROUNDS_PER_BLOCK = 64


class SHA256:
    """Incremental SHA-256.

    >>> h = SHA256()
    >>> h.update(b"abc")
    >>> h.hexdigest()
    'ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad'
    """

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    def __init__(self, data: bytes = b"") -> None:
        self._hash = hashlib.sha256(data)
        self._length = len(data)  # total message length in bytes

    @property
    def blocks_processed(self) -> int:
        """Whole 512-bit blocks absorbed so far (padding not included)."""
        return self._length // BLOCK_SIZE

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        self._hash.update(data)
        self._length += len(data)

    def copy(self) -> "SHA256":
        """Return an independent copy of the current hash state."""
        clone = SHA256.__new__(SHA256)
        clone._hash = self._hash.copy()
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far.

        The internal state is not consumed; more ``update()`` calls may
        follow.
        """
        return self._hash.digest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def sha256(data: bytes) -> bytes:
    """One-shot convenience: the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def blocks_for_length(length: int) -> int:
    """Number of 512-bit compression blocks SHA-256 needs for a message of
    ``length`` bytes, including padding.

    Used by the HDE cycle model: hashing charges
    ``blocks_for_length(n) * ROUNDS_PER_BLOCK`` cycles.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    return (length + 8) // 64 + 1
