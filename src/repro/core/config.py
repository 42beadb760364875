"""Encryption configuration — the decision surface of ERIC's interface.

The paper's GUI lets the programmer choose (§III.1, step ②): the target
ISA flavour, the encryption function, full/partial/field encryption, and
the target hardware's key.  :class:`EricConfig` is that choice set as a
validated value object.

``TABLE_I_ENVIRONMENT`` mirrors the paper's test-environment table so the
Table I bench can print paper-vs-reproduction configuration rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.crypto.xor_cipher import registered_ciphers
from repro.errors import ConfigError
from repro.isa.fields import FIELD_CLASSES


class EncryptionMode(Enum):
    """The paper's three encryption methods (§III.1)."""

    FULL = "full"
    PARTIAL = "partial"
    FIELD = "field"


@dataclass(frozen=True)
class EricConfig:
    """Packaging configuration handed to :class:`EricCompiler`.

    Attributes:
        mode: full program, random subset of instructions, or selected
            bit-fields within instructions.
        cipher: registered cipher name ("xor-repeating" is the paper's).
        partial_fraction: fraction of instruction slots encrypted in
            PARTIAL mode.
        field_classes: which instruction fields FIELD mode hides
            (opcode/funct are never encrypted so the HDE can recompute
            the masks).
        field_fraction: fraction of eligible (32-bit) slots FIELD mode
            touches.
        selection_seed: PRNG seed for the random slot selection.
        compress: compile with RVC compression (RV64GC vs RV64G).
        optimize: run the MiniC optimizer.
        epoch: KMU conversion-function context; re-keying a device is
            changing this string (§III.2 Key Management Unit).
        sign_data: extension — also cover the data section with the
            signature.  The paper hashes "the instructions" only, so the
            faithful default is False.
        encrypt_data: extension — encrypt the data section too (under a
            separately derived key).  The paper's encryption is
            instruction-oriented, so the faithful default is False; turn
            this on when string constants/tables are themselves secret.
    """

    mode: EncryptionMode = EncryptionMode.FULL
    cipher: str = "xor-repeating"
    partial_fraction: float = 0.5
    field_classes: tuple[str, ...] = ("imm", "rs1", "rs2", "rd")
    field_fraction: float = 1.0
    selection_seed: int = 0xE51C
    compress: bool = False
    optimize: bool = True
    epoch: bytes = b"epoch-0"
    sign_data: bool = False
    encrypt_data: bool = False

    def validate(self) -> "EricConfig":
        if self.cipher not in registered_ciphers():
            raise ConfigError(
                f"unknown cipher {self.cipher!r}; "
                f"registered: {registered_ciphers()}")
        if not 0.0 <= self.partial_fraction <= 1.0:
            raise ConfigError("partial_fraction must be in [0, 1]")
        if not 0.0 <= self.field_fraction <= 1.0:
            raise ConfigError("field_fraction must be in [0, 1]")
        if not self.field_classes and self.mode is EncryptionMode.FIELD:
            raise ConfigError("FIELD mode needs at least one field class")
        for cls in self.field_classes:
            if cls not in FIELD_CLASSES:
                raise ConfigError(f"unknown field class {cls!r}")
        if "opcode" in self.field_classes:
            raise ConfigError(
                "opcode bits cannot be encrypted: the HDE derives field "
                "masks from them (and plaintext opcodes hide that the "
                "program is encrypted at all, §III.1)")
        if not self.epoch:
            raise ConfigError("epoch must be non-empty")
        return self


#: Paper Table I, for the configuration bench.
TABLE_I_ENVIRONMENT: dict[str, tuple[str, str]] = {
    # parameter: (paper value, reproduction value)
    "FPGA": ("Xilinx Zedboard", "simulated (structural area model)"),
    "PUF Type": ("Arbiter PUF", "Arbiter PUF (additive delay model)"),
    "PUF Parameters": ("32x 8-bit challenge 1-bit response",
                       "32x 8-bit challenge 1-bit response"),
    "Signature Function": ("SHA-256", "SHA-256 (hashlib)"),
    "Encryption Function": ("XOR Cipher", "XOR Cipher (repeating key)"),
    "SoC": ("Rocket Chip (In-Order 6-stage)",
            "Rocket-like in-order timing model"),
    "Test Frequency": ("25 MHz", "25 MHz (cycle model)"),
    "Target ISA": ("RV64GC", "RV64IM + RVC subset"),
    "L1 Data Cache": ("16KiB, 4-way, Set-associative",
                      "16KiB, 4-way, Set-associative"),
    "L1 Instruction Cache": ("16KiB, 4-way, Set-associative",
                             "16KiB, 4-way, Set-associative"),
    "Register File": ("31 Entries, 64-bit", "31 Entries, 64-bit"),
}
