"""The ``Program`` image: what the compiler produces and ERIC encrypts.

A ``Program`` is the reproduction's stand-in for the paper's "compiled
program": text and data sections, an entry point, a symbol table, and —
crucially for ERIC — the exact instruction-slot layout of the text
section, which the encryptor's per-instruction map is built against.

``serialize_plain()`` is the unencrypted on-disk form used as the baseline
"unencrypted compiled program" size in Fig. 5.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import PackageFormatError

_PLAIN_MAGIC = b"RVPI"  # RISC-V Plain Image
_PLAIN_VERSION = 1


@dataclass(frozen=True)
class InstructionSlot:
    """One instruction position in the text section."""

    offset: int  # byte offset within the text section
    size: int    # 2 (compressed) or 4 bytes

    def __post_init__(self) -> None:
        if self.size not in (2, 4):
            raise PackageFormatError(f"invalid slot size {self.size}")
        if self.offset < 0:
            raise PackageFormatError(f"negative slot offset {self.offset}")


@dataclass
class Program:
    """A compiled, linked, loadable program image."""

    text: bytes
    data: bytes
    text_base: int
    data_base: int
    entry: int
    layout: tuple[InstructionSlot, ...]
    symbols: dict[str, int] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if self.layout:
            end = self.layout[-1].offset + self.layout[-1].size
            if end > len(self.text):
                raise PackageFormatError(
                    f"layout extends to {end} but text is {len(self.text)}B"
                )

    @property
    def instruction_count(self) -> int:
        """Number of instruction slots (the encryption map's bit count)."""
        return len(self.layout)

    @property
    def compressed_count(self) -> int:
        """Number of 16-bit slots (drives the RVC map-overhead effect)."""
        return sum(1 for slot in self.layout if slot.size == 2)

    def serialize_plain(self) -> bytes:
        """Unencrypted wire form — the Fig. 5 size baseline.

        Deliberately carries *no* instruction-layout table: a normal
        executable does not need one (RISC-V length bits self-describe the
        stream), and carrying one would hide the encryption map's size
        cost that Fig. 5 measures.  ``deserialize_plain`` re-derives the
        layout by walking the plaintext.
        """
        header = struct.pack(
            "<4sHQQQII",
            _PLAIN_MAGIC, _PLAIN_VERSION,
            self.entry, self.text_base, self.data_base,
            len(self.text), len(self.data),
        )
        return header + self.text + self.data

    @classmethod
    def deserialize_plain(cls, blob: bytes, name: str = "") -> "Program":
        """Inverse of :meth:`serialize_plain` (symbols are not carried)."""
        header_size = struct.calcsize("<4sHQQQII")
        if len(blob) < header_size:
            raise PackageFormatError("plain image truncated (header)")
        magic, version, entry, text_base, data_base, text_len, data_len = \
            struct.unpack("<4sHQQQII", blob[:header_size])
        if magic != _PLAIN_MAGIC:
            raise PackageFormatError(f"bad plain-image magic {magic!r}")
        if version != _PLAIN_VERSION:
            raise PackageFormatError(f"unsupported plain-image v{version}")
        expected = header_size + text_len + data_len
        if len(blob) != expected:
            raise PackageFormatError(
                f"plain image length {len(blob)} != expected {expected}"
            )
        cursor = header_size
        text = blob[cursor:cursor + text_len]
        cursor += text_len
        data = blob[cursor:cursor + data_len]
        return cls(text=text, data=data, text_base=text_base,
                   data_base=data_base, entry=entry,
                   layout=layout_from_text(text), name=name)


def layout_from_text(text: bytes) -> tuple[InstructionSlot, ...]:
    """Re-derive the instruction-slot layout from plaintext by the RISC-V
    length rule (low bits 0b11 = 32-bit parcel)."""
    slots = []
    offset = 0
    while offset + 2 <= len(text):
        halfword = int.from_bytes(text[offset:offset + 2], "little")
        size = 4 if halfword & 0b11 == 0b11 else 2
        if offset + size > len(text):
            raise PackageFormatError(
                f"text ends mid-instruction at offset {offset}")
        slots.append(InstructionSlot(offset=offset, size=size))
        offset += size
    if offset != len(text):
        raise PackageFormatError("text length is not instruction-aligned")
    return tuple(slots)
