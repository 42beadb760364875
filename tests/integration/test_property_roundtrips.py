"""Property-based end-to-end invariants (hypothesis).

Random synthetic programs (arbitrary valid instruction streams + random
data) must round-trip through encrypt -> package -> HDE decrypt for every
mode, and must *never* survive a wrong-key decryption.  Corrupted
package bytes — the untrusted input of a device — must fail only with
typed :class:`~repro.errors.EricError` subclasses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.program import InstructionSlot, Program
from repro.core.config import EncryptionMode, EricConfig
from repro.core.encryptor import encrypt_program
from repro.core.keys import KeyManagementUnit, puf_based_key
from repro.core.package import ProgramPackage
from repro.core.signature import compute_signature
from repro.errors import EricError, PackageFormatError, ValidationError
from repro.isa.compressed import compress
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction

# -- synthetic program strategy ----------------------------------------------

_R_NAMES = ("add", "sub", "xor", "and", "or", "mul", "sltu")
_I_NAMES = ("addi", "andi", "ori", "xori", "addiw")
_LOADS = ("lw", "ld", "lbu")
_STORES = ("sw", "sd", "sb")

regs = st.integers(min_value=0, max_value=31)
imm12 = st.integers(min_value=-2048, max_value=2047)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(("r", "i", "load", "store")))
    if kind == "r":
        return Instruction(draw(st.sampled_from(_R_NAMES)),
                           rd=draw(regs), rs1=draw(regs), rs2=draw(regs))
    if kind == "i":
        return Instruction(draw(st.sampled_from(_I_NAMES)),
                           rd=draw(regs), rs1=draw(regs), imm=draw(imm12))
    if kind == "load":
        return Instruction(draw(st.sampled_from(_LOADS)),
                           rd=draw(regs), rs1=draw(regs), imm=draw(imm12))
    return Instruction(draw(st.sampled_from(_STORES)),
                       rs2=draw(regs), rs1=draw(regs), imm=draw(imm12))


@st.composite
def synthetic_programs(draw):
    instrs = draw(st.lists(instructions(), min_size=1, max_size=60))
    use_rvc = draw(st.booleans())
    text = bytearray()
    layout = []
    for instr in instrs:
        halfword = compress(instr) if use_rvc else None
        if halfword is not None:
            layout.append(InstructionSlot(offset=len(text), size=2))
            text.extend(halfword.to_bytes(2, "little"))
        else:
            layout.append(InstructionSlot(offset=len(text), size=4))
            text.extend(encode(instr).to_bytes(4, "little"))
    data = draw(st.binary(max_size=128))
    return Program(text=bytes(text), data=data, text_base=0x10000,
                   data_base=0x20000, entry=0x10000,
                   layout=tuple(layout))


def _package(program, config, pbk):
    kmu = KeyManagementUnit(pbk)
    signature = compute_signature(program, include_data=config.sign_data)
    encrypted = encrypt_program(program, config,
                                kmu.text_cipher(config.cipher),
                                kmu.signature_cipher(config.cipher),
                                signature)
    return ProgramPackage(
        mode=config.mode, cipher=config.cipher,
        field_classes=(config.field_classes
                       if config.mode is EncryptionMode.FIELD else ()),
        entry=program.entry, text_base=program.text_base,
        data_base=program.data_base, enc_text=encrypted.ciphertext,
        data=program.data, enc_map=encrypted.enc_map,
        enc_signature=encrypted.enc_signature,
        data_signed=config.sign_data,
    ).serialize()


MODES = [EncryptionMode.FULL, EncryptionMode.PARTIAL, EncryptionMode.FIELD]


@pytest.fixture(scope="module")
def hde_pair():
    """A real device HDE plus its enrollment key (shared per module)."""
    from repro.core.device import Device
    device = Device(device_seed=0x9999)
    return device.hde, device.enrollment_key()


@given(program=synthetic_programs(),
       mode=st.sampled_from(MODES),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(program, mode, seed, hde_pair):
    hde, pbk = hde_pair
    config = EricConfig(mode=mode, partial_fraction=0.5,
                        selection_seed=seed).validate()
    blob = _package(program, config, pbk)
    recovered, report = hde.process(blob)
    assert recovered.text == program.text
    assert recovered.data == program.data
    assert tuple(recovered.layout) == tuple(program.layout)
    assert report.signature_ok


@given(program=synthetic_programs(),
       mode=st.sampled_from([EncryptionMode.FULL, EncryptionMode.PARTIAL]))
@settings(max_examples=25, deadline=None)
def test_wrong_key_always_fails(program, mode, hde_pair):
    hde, _ = hde_pair
    config = EricConfig(mode=mode).validate()
    wrong_pbk = puf_based_key(b"not-the-device")
    blob = _package(program, config, wrong_pbk)
    with pytest.raises(ValidationError):
        hde.process(blob)


@given(program=synthetic_programs())
@settings(max_examples=25, deadline=None)
def test_package_serialization_roundtrip(program, hde_pair):
    _, pbk = hde_pair
    config = EricConfig(mode=EncryptionMode.PARTIAL).validate()
    blob = _package(program, config, pbk)
    package = ProgramPackage.deserialize(blob)
    assert package.serialize() == blob


# -- untrusted bytes: a corrupted package fails only with typed errors -------

MUTATION_SOURCE = 'int main() { print_int(7); print_char(10); return 3; }\n'


@pytest.fixture(scope="module")
def packaged():
    """A real device plus one valid package per mode for it."""
    from repro.core.compiler_driver import EricCompiler
    from repro.core.device import Device
    device = Device(device_seed=0x5EED)
    key = device.enrollment_key()
    blobs = {mode: EricCompiler(EricConfig(mode=mode, partial_fraction=0.5))
             .compile_and_package(MUTATION_SOURCE, key, name="m")
             .package_bytes
             for mode in MODES}
    return device, blobs


def _header_size(blob: bytes) -> int:
    """Bytes before the map/text (see the layout in core/package.py):
    9 fixed, the cipher name, the field-class list, 36 of geometry."""
    cipher_len = blob[8]
    return 9 + cipher_len + 1 + blob[9 + cipher_len] + 36


@given(mode=st.sampled_from(MODES), data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_packages_raise_only_eric_errors(mode, data, packaged):
    """Any single-byte change, truncation or trailing junk either still
    loads or fails with an EricError subclass — never IndexError,
    struct.error or UnicodeDecodeError out of the parser or the HDE."""
    device, blobs = packaged
    blob = bytearray(blobs[mode])
    kind = data.draw(st.sampled_from(("byte", "truncate", "append")))
    if kind == "byte":
        # half the draws aim at the header, where the parser trusts
        # lengths and counts; the rest anywhere
        position = data.draw(st.one_of(
            st.integers(0, _header_size(blob) - 1),
            st.integers(0, len(blob) - 1)))
        blob[position] = data.draw(
            st.integers(0, 255).filter(lambda v: v != blob[position]))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=64))
    for load in (ProgramPackage.deserialize,
                 lambda b: device.load_and_run(b, max_instructions=20_000)):
        try:
            load(bytes(blob))
        except EricError:
            pass


def test_non_utf8_cipher_name_is_a_format_error(packaged):
    _, blobs = packaged
    blob = bytearray(blobs[EncryptionMode.FULL])
    blob[9] = 0xFF  # first byte of the cipher name
    with pytest.raises(PackageFormatError, match="UTF-8"):
        ProgramPackage.deserialize(bytes(blob))


def test_impossible_full_mode_slot_count_is_rejected_fast(packaged):
    """A full-mode package claiming 0xFFFFFFFF slots must be refused
    before the parser builds a 2^32-entry map."""
    import time

    _, blobs = packaged
    blob = bytearray(blobs[EncryptionMode.FULL])
    slot_count = _header_size(blob) - 4  # the geometry's last u32
    blob[slot_count:slot_count + 4] = b"\xff\xff\xff\xff"
    start = time.perf_counter()
    with pytest.raises(PackageFormatError, match="cannot fit"):
        ProgramPackage.deserialize(bytes(blob))
    assert time.perf_counter() - start < 0.5
