"""Exception hierarchy for the ERIC reproduction.

Every failure mode in the framework maps to a distinct exception type so
that callers (and tests) can distinguish, e.g., a tampered package from a
wrong-device decryption: both fail signature validation, but the package
parser can also fail earlier on structural corruption.
"""

from __future__ import annotations


class EricError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(EricError):
    """An encryption/compilation configuration is invalid or inconsistent."""


class PackageFormatError(EricError):
    """A serialized program package is structurally malformed."""


class ValidationError(EricError):
    """Signature validation failed: the package was not produced for this
    device, or it was modified in transit (paper §III.2, Validation Unit)."""


class KeyMismatchError(ValidationError):
    """Decryption produced an image whose signature cannot validate —
    the device's PUF-based key does not match the packaging key."""


class AssemblerError(EricError):
    """The assembler rejected an assembly source."""


class CompileError(EricError):
    """The MiniC compiler rejected a source program."""


class LexError(CompileError):
    """Tokenization failure with source location."""


class ParseError(CompileError):
    """Syntax error with source location."""


class SemanticError(CompileError):
    """Type/semantic error with source location."""


class EncodingError(EricError):
    """An instruction cannot be encoded (bad operands, out-of-range imm)."""


class DecodingError(EricError):
    """A word does not decode to a known instruction."""


class SimulatorError(EricError):
    """The SoC simulator hit an unrecoverable condition."""


class MemoryFault(SimulatorError):
    """An access outside mapped memory or misaligned beyond tolerance."""


class IllegalInstruction(SimulatorError):
    """The CPU fetched a word that does not decode; carries the pc and,
    when the SoC attaches them, the partial performance counters at the
    point of the fault (``counters`` — forensics for farm tracebacks)."""

    def __init__(self, pc: int, word: int, counters=None) -> None:
        super().__init__(f"illegal instruction at pc={pc:#x}: word={word:#010x}")
        self.pc = pc
        self.word = word
        self.counters = counters


class ExecutionLimitExceeded(SimulatorError):
    """The instruction budget was exhausted before the program exited.

    Symmetric with :class:`IllegalInstruction`: the SoC attaches the
    partial counters and the pc reached when the budget ran out, so a
    farm one-line traceback can say *where* a runaway program was."""

    def __init__(self, message: str, pc=None, counters=None) -> None:
        super().__init__(message)
        self.pc = pc
        self.counters = counters


class ProvisioningError(EricError):
    """Device enrollment/handshake failure (unknown device, bad helper data)."""


class ChannelError(EricError):
    """The transfer channel dropped or refused the payload."""
