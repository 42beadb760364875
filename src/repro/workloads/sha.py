"""sha — MiBench `security/sha` counterpart.

A full SHA-256 implementation *in MiniC* (the MiBench suite hashes input
files with SHA; we hash a pseudorandom message, twice, chaining).  All
arithmetic is 32-bit modular via explicit masking; the oracle is
:func:`repro.crypto.sha256.sha256` (``hashlib``) over the byte-identical
message.
"""

from __future__ import annotations

from repro.crypto.sha256 import sha256
from repro.workloads.base import MINIC_RNG, MiniRng, Workload

_SEED = 60486
_MESSAGE_BYTES = 128
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_H0 = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
       0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)


def _message() -> bytes:
    rng = MiniRng(_SEED)
    return bytes(rng.next() & 0xFF for _ in range(_MESSAGE_BYTES))


def _reference() -> str:
    digest = sha256(sha256(_message()))
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 32, 4)]
    return "".join(f"{w}\n" for w in words)


_SOURCE = f"""
{MINIC_RNG}

int K[64] = {{{", ".join(str(k) for k in _K)}}};
int H[8];
char msg[{_MESSAGE_BYTES + 128}];
char out[32];
int W[64];

int rotr(int x, int n) {{
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF;
}}

void sha256_run(int msg_len) {{
    H[0] = {_H0[0]}; H[1] = {_H0[1]}; H[2] = {_H0[2]}; H[3] = {_H0[3]};
    H[4] = {_H0[4]}; H[5] = {_H0[5]}; H[6] = {_H0[6]}; H[7] = {_H0[7]};

    // padding: 0x80, zeros, 64-bit big-endian bit length
    int total = msg_len + 1;
    msg[msg_len] = 0x80;
    while (total % 64 != 56) {{
        msg[total] = 0;
        total++;
    }}
    int bits = msg_len * 8;
    for (int i = 7; i >= 0; i--) {{
        msg[total + i] = bits & 0xFF;
        bits = bits >> 8;
    }}
    total += 8;

    for (int block = 0; block < total; block += 64) {{
        for (int t = 0; t < 16; t++) {{
            W[t] = (msg[block + 4 * t] << 24)
                 | (msg[block + 4 * t + 1] << 16)
                 | (msg[block + 4 * t + 2] << 8)
                 | msg[block + 4 * t + 3];
        }}
        for (int t = 16; t < 64; t++) {{
            int s0 = rotr(W[t - 15], 7) ^ rotr(W[t - 15], 18)
                   ^ (W[t - 15] >> 3);
            int s1 = rotr(W[t - 2], 17) ^ rotr(W[t - 2], 19)
                   ^ (W[t - 2] >> 10);
            W[t] = (W[t - 16] + s0 + W[t - 7] + s1) & 0xFFFFFFFF;
        }}
        int a = H[0]; int b = H[1]; int c = H[2]; int d = H[3];
        int e = H[4]; int f = H[5]; int g = H[6]; int h = H[7];
        for (int t = 0; t < 64; t++) {{
            int s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            int ch = (e & f) ^ (~e & g);
            int temp1 = (h + s1 + ch + K[t] + W[t]) & 0xFFFFFFFF;
            int s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            int maj = (a & b) ^ (a & c) ^ (b & c);
            int temp2 = (s0 + maj) & 0xFFFFFFFF;
            h = g; g = f; f = e;
            e = (d + temp1) & 0xFFFFFFFF;
            d = c; c = b; b = a;
            a = (temp1 + temp2) & 0xFFFFFFFF;
        }}
        H[0] = (H[0] + a) & 0xFFFFFFFF;
        H[1] = (H[1] + b) & 0xFFFFFFFF;
        H[2] = (H[2] + c) & 0xFFFFFFFF;
        H[3] = (H[3] + d) & 0xFFFFFFFF;
        H[4] = (H[4] + e) & 0xFFFFFFFF;
        H[5] = (H[5] + f) & 0xFFFFFFFF;
        H[6] = (H[6] + g) & 0xFFFFFFFF;
        H[7] = (H[7] + h) & 0xFFFFFFFF;
    }}

    for (int i = 0; i < 8; i++) {{
        out[4 * i] = (H[i] >> 24) & 0xFF;
        out[4 * i + 1] = (H[i] >> 16) & 0xFF;
        out[4 * i + 2] = (H[i] >> 8) & 0xFF;
        out[4 * i + 3] = H[i] & 0xFF;
    }}
}}

int main() {{
    rng_state = {_SEED};
    for (int i = 0; i < {_MESSAGE_BYTES}; i++) {{
        msg[i] = rng_next() & 0xFF;
    }}
    sha256_run({_MESSAGE_BYTES});

    // second pass: hash the 32-byte digest (digest-of-digest chaining)
    for (int i = 0; i < 32; i++) {{
        msg[i] = out[i];
    }}
    sha256_run(32);

    for (int i = 0; i < 8; i++) {{
        print_int(H[i]);
        print_char('\\n');
    }}
    return 0;
}}
"""

WORKLOAD = Workload(
    name="sha",
    mibench_counterpart="security/sha",
    description="SHA-256 in MiniC over a PRNG message, digest chained",
    source=_SOURCE,
    expected_stdout=_reference(),
)
