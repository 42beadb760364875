"""The program-package wire format (what travels over the network).

Layout (little-endian)::

    magic        4s   b"ERIC"
    version      u16
    mode         u8     0=full 1=partial 2=field
    cipher_len   u8     followed by cipher name (utf-8)
    n_fields     u8     followed by field-class ids (u8 each)
    entry        u64
    text_base    u64
    data_base    u64
    text_len     u32
    data_len     u32
    slot_count   u32
    map          (slot_count+7)//8 bytes   1 bit per instruction slot
    enc_text     text_len bytes
    data         data_len bytes
    enc_signature 32 bytes

Size accounting matches the paper (§IV.A): full encryption adds only the
(fixed) signature — the all-ones map is implied and **not** serialized;
partial/field encryption pays one map bit per instruction — which is
1 bit per 16 bits of text when RVC is in play.  The small fixed header
exists in any realistic container format and is the same for all modes.

Integrity note: the package itself is *not* MACed — that is the point of
the design.  Any corruption either breaks parsing (structural bounds) or
garbles decryption, and the decrypted-signature comparison in the
Validation Unit fails closed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.config import EncryptionMode
from repro.core.encryptor import EncryptionMap
from repro.errors import PackageFormatError
from repro.isa.fields import FIELD_CLASSES

MAGIC = b"ERIC"
VERSION = 1
SIGNATURE_BYTES = 32

_MODE_IDS = {EncryptionMode.FULL: 0, EncryptionMode.PARTIAL: 1,
             EncryptionMode.FIELD: 2}
_MODE_FROM_ID = {v: k for k, v in _MODE_IDS.items()}

_FIXED = struct.Struct("<4sHBBB")
_GEOMETRY = struct.Struct("<QQQIII")

#: the smallest instruction slot (an RVC halfword)
_MIN_SLOT_BYTES = 2

_FLAG_DATA_SIGNED = 0x01
_FLAG_DATA_ENCRYPTED = 0x02


@dataclass(frozen=True)
class ProgramPackage:
    """Parsed package (the HDE's input)."""

    mode: EncryptionMode
    cipher: str
    field_classes: tuple[str, ...]
    entry: int
    text_base: int
    data_base: int
    enc_text: bytes
    data: bytes
    enc_map: EncryptionMap
    enc_signature: bytes
    data_signed: bool = False
    data_encrypted: bool = False

    def serialize(self) -> bytes:
        cipher_bytes = self.cipher.encode("utf-8")
        if len(cipher_bytes) > 255:
            raise PackageFormatError("cipher name too long")
        flags = (_FLAG_DATA_SIGNED if self.data_signed else 0) \
            | (_FLAG_DATA_ENCRYPTED if self.data_encrypted else 0)
        parts = [
            _FIXED.pack(MAGIC, VERSION, _MODE_IDS[self.mode], flags,
                        len(cipher_bytes)),
            cipher_bytes,
            bytes([len(self.field_classes)]),
            bytes(FIELD_CLASSES.index(c) for c in self.field_classes),
            _GEOMETRY.pack(self.entry, self.text_base, self.data_base,
                           len(self.enc_text), len(self.data),
                           self.enc_map.count),
            b"" if self.mode is EncryptionMode.FULL else self.enc_map.bits,
            self.enc_text,
            self.data,
            self.enc_signature,
        ]
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "ProgramPackage":
        cursor = 0

        def take(n: int, what: str) -> bytes:
            nonlocal cursor
            if cursor + n > len(blob):
                raise PackageFormatError(f"package truncated in {what}")
            piece = blob[cursor:cursor + n]
            cursor += n
            return piece

        magic, version, mode_id, flags, cipher_len = _FIXED.unpack(
            take(_FIXED.size, "fixed header"))
        if magic != MAGIC:
            raise PackageFormatError(f"bad package magic {magic!r}")
        if version != VERSION:
            raise PackageFormatError(f"unsupported package version "
                                     f"{version}")
        if mode_id not in _MODE_FROM_ID:
            raise PackageFormatError(f"unknown mode id {mode_id}")
        try:
            cipher = take(cipher_len, "cipher name").decode("utf-8")
        except UnicodeDecodeError:
            raise PackageFormatError("cipher name is not UTF-8") from None
        n_fields = take(1, "field count")[0]
        field_ids = take(n_fields, "field classes")
        try:
            field_classes = tuple(FIELD_CLASSES[i] for i in field_ids)
        except IndexError:
            raise PackageFormatError("unknown field-class id") from None
        entry, text_base, data_base, text_len, data_len, slot_count = \
            _GEOMETRY.unpack(take(_GEOMETRY.size, "geometry"))
        mode = _MODE_FROM_ID[mode_id]
        # all-ones full-mode map is implied; not carried on the wire
        # (§IV.A)
        map_bits = None if mode is EncryptionMode.FULL \
            else take((slot_count + 7) // 8, "encryption map")
        enc_text = take(text_len, "text")
        if slot_count * _MIN_SLOT_BYTES > len(enc_text):
            # checked against text actually present, before the map is
            # built: a full-mode map costs one loop step per claimed
            # slot, and the u32 allows 2^32-1
            raise PackageFormatError(
                f"{slot_count} instruction slots cannot fit in "
                f"{text_len} text bytes")
        enc_map = EncryptionMap.full(slot_count) if map_bits is None \
            else EncryptionMap(map_bits, slot_count)
        data = take(data_len, "data")
        enc_signature = take(SIGNATURE_BYTES, "signature")
        if cursor != len(blob):
            raise PackageFormatError(
                f"{len(blob) - cursor} trailing bytes after package")
        return cls(mode=mode, cipher=cipher,
                   field_classes=field_classes, entry=entry,
                   text_base=text_base, data_base=data_base,
                   enc_text=enc_text, data=data, enc_map=enc_map,
                   enc_signature=enc_signature,
                   data_signed=bool(flags & _FLAG_DATA_SIGNED),
                   data_encrypted=bool(flags & _FLAG_DATA_ENCRYPTED))

    @property
    def size(self) -> int:
        return len(self.serialize())
