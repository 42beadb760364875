"""HMAC-SHA256 (RFC 2104) over the standard library's :mod:`hmac`.

The Key Management Unit derives PUF-based keys and per-purpose subkeys via
a counter-mode KDF whose PRF is this HMAC (see :mod:`repro.crypto.kdf`).
"""

from __future__ import annotations

import hmac


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return ``HMAC-SHA256(key, message)`` as 32 bytes."""
    return hmac.digest(key, message, "sha256")
