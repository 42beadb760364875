"""Cryptographic substrate for the ERIC reproduction.

The paper implements SHA-256 in C++ inside the compiler and uses a simple
XOR cipher as the pluggable symmetric encryption function (§IV.A).  This
package provides those, plus the pieces the wider evaluation needs:

* :mod:`repro.crypto.sha256` — SHA-256 over :mod:`hashlib` with a
  streaming API and the block count the HDE cycle model charges
  (signature generation on both compiler and hardware sides).
* :mod:`repro.crypto.hmac` — HMAC-SHA256 over :mod:`hmac`
  (key-derivation building block).
* :mod:`repro.crypto.kdf` — counter-mode KDF over HMAC-SHA256 (the Key
  Management Unit's "conversion function").
* :mod:`repro.crypto.xor_cipher` — repeating-key XOR (the paper's cipher)
  and a SHA-256-CTR keystream variant, both instruction-slot addressable.
* :mod:`repro.crypto.aes` — AES-128 from scratch; used as the related-work
  baseline (AES-per-cache-line memory encryption, §V).
* :mod:`repro.crypto.prng` — deterministic PRNGs (SplitMix64, Xoshiro256**)
  used wherever the framework needs reproducible randomness.

The hash and the MAC wrap the standard library, as the paper's hash is
native code (C++ in the compiler, a hardware core in the HDE); the cycle
model charges SHA-256 by message length alone.  The ciphers, the KDF,
AES and the PRNGs are implemented here.  Tests check the hash, the MAC
and AES against published vectors.
"""

from repro.crypto.sha256 import SHA256, sha256
from repro.crypto.hmac import hmac_sha256
from repro.crypto.kdf import derive_key, expand_keystream
from repro.crypto.xor_cipher import (
    Cipher,
    RepeatingKeyXor,
    Sha256CtrCipher,
    make_cipher,
)
from repro.crypto.aes import AES128, aes128_ctr_keystream
from repro.crypto.prng import SplitMix64, Xoshiro256StarStar

__all__ = [
    "SHA256",
    "sha256",
    "hmac_sha256",
    "derive_key",
    "expand_keystream",
    "Cipher",
    "RepeatingKeyXor",
    "Sha256CtrCipher",
    "make_cipher",
    "AES128",
    "aes128_ctr_keystream",
    "SplitMix64",
    "Xoshiro256StarStar",
]
