"""Assembler behaviour: parsing, labels, pseudos, fixups, sections."""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.errors import AssemblerError
from repro.isa.decoding import decode_at
from repro.isa.disassembler import disassemble_text


def decode_all(program):
    """Decode the whole text section into (name, instr) tuples."""
    result = []
    offset = 0
    while offset < len(program.text):
        instr, size = decode_at(program.text, offset)
        result.append(instr)
        offset += size
    return result


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("addi a0, zero, 42\n")
        instrs = decode_all(program)
        assert len(instrs) == 1
        assert instrs[0].name == "addi"
        assert instrs[0].rd == 10
        assert instrs[0].imm == 42

    def test_r_type_and_memory_operands(self):
        program = assemble(
            """
            add t0, t1, t2
            ld a0, 16(sp)
            sd a1, -8(s0)
            """
        )
        instrs = decode_all(program)
        assert [i.name for i in instrs] == ["add", "ld", "sd"]
        assert instrs[1].imm == 16 and instrs[1].rs1 == 2
        assert instrs[2].imm == -8 and instrs[2].rs1 == 8

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            # full-line comment
            addi a0, zero, 1   # trailing comment
            // slash comment
            addi a1, zero, 2
            """
        )
        assert len(program.layout) == 2

    def test_immediate_bases(self):
        program = assemble(
            """
            addi a0, zero, 0x10
            addi a1, zero, 0b101
            addi a2, zero, -3
            addi a3, zero, 'A'
            addi a4, zero, '\\n'
            """
        )
        imms = [i.imm for i in decode_all(program)]
        assert imms == [16, 5, -3, 65, 10]

    def test_unknown_instruction(self):
        with pytest.raises(AssemblerError, match="unknown instruction"):
            assemble("frobnicate a0, a1\n")

    def test_bad_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1\n")

    def test_unknown_register(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1, q7\n")


class TestLabelsAndBranches:
    def test_backward_branch(self):
        program = assemble(
            """
            loop:
              addi a0, a0, 1
              beq a0, a1, loop
            """
        )
        instrs = decode_all(program)
        assert instrs[1].name == "beq"
        assert instrs[1].imm == -4

    def test_forward_branch(self):
        program = assemble(
            """
            beq a0, a1, done
            addi a0, a0, 1
            done:
              addi a1, zero, 0
            """
        )
        instrs = decode_all(program)
        assert instrs[0].imm == 8

    def test_jal_and_j(self):
        program = assemble(
            """
            _start:
              jal ra, func
              j end
            func:
              ret
            end:
              nop
            """
        )
        instrs = decode_all(program)
        assert instrs[0].name == "jal" and instrs[0].rd == 1
        assert instrs[0].imm == 8
        assert instrs[1].name == "jal" and instrs[1].rd == 0
        assert instrs[1].imm == 8

    def test_branch_pseudos(self):
        program = assemble(
            """
            target:
              beqz a0, target
              bnez a1, target
              blez a2, target
              bgez a3, target
              bgt a4, a5, target
              bleu a6, a7, target
            """
        )
        instrs = decode_all(program)
        assert instrs[0].name == "beq" and instrs[0].rs2 == 0
        assert instrs[1].name == "bne"
        assert instrs[2].name == "bge" and instrs[2].rs1 == 0
        assert instrs[3].name == "bge" and instrs[3].rs2 == 0
        assert instrs[4].name == "blt" and instrs[4].rs1 == 15
        assert instrs[5].name == "bgeu" and instrs[5].rs1 == 17

    def test_label_with_offset(self):
        program = assemble(
            """
            .data
            table: .dword 1, 2, 3
            .text
            la a0, table+8
            """
        )
        # la expands to lui+addiw producing table's address + 8
        address = program.symbols["table"] + 8
        instrs = decode_all(program)
        hi = instrs[0].imm << 12
        assert hi + instrs[1].imm == address

    def test_jal_forms(self):
        assert assemble("main:\n  jal main\n").text.hex() == "ef000000"
        assert assemble("main:\n  jal a0, main\n").text.hex() == "6f050000"

    @pytest.mark.parametrize("operands", ["a0, a1, main", "a0, a1, a2, main"])
    def test_jal_with_extra_operands_rejected(self, operands):
        # was silently assembled as "jal a0, main"
        count = operands.count(",") + 1
        with pytest.raises(AssemblerError,
                           match=f"line 2: jal expects 1 or 2 operands, "
                                 f"got {count}"):
            assemble(f"main:\n  jal {operands}\n")

    @pytest.mark.parametrize("source, line", [
        ("main:\n  sd t0, 2064(sp)\n", 2),
        ("main:\n  addi t0, sp, 5000\n", 2),
        ("main:\n  slli t0, t0, 99\n", 2),
        ("main:\n  beq a0, a1, far\n" + "  nop\n" * 1100 + "far:\n", 2),
        ("main:\n  jal a0, 3000000\n", 2),
    ])
    def test_unencodable_operand_is_an_assembler_error(self, source, line):
        # was a raw EncodingError with no line number
        with pytest.raises(AssemblerError, match=f"^line {line}: "):
            assemble(source)

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x:\nx:\n  nop\n")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError, match="undefined symbol"):
            assemble("j nowhere\n")

    def test_entry_is_start_symbol(self):
        program = assemble(
            """
            nop
            _start:
              nop
            """
        )
        assert program.entry == program.text_base + 4

    def test_entry_defaults_to_text_base(self):
        program = assemble("nop\n", text_base=0x4000)
        assert program.entry == 0x4000


class TestPseudos:
    def test_li_small(self):
        program = assemble("li a0, 100\n")
        instrs = decode_all(program)
        assert len(instrs) == 1
        assert instrs[0].name == "addi"

    def test_li_32bit(self):
        program = assemble("li a0, 0x12345678\n")
        instrs = decode_all(program)
        assert [i.name for i in instrs] == ["lui", "addiw"]

    def test_li_64bit(self):
        program = assemble("li a0, 0x123456789ABCDEF0\n")
        names = {i.name for i in decode_all(program)}
        assert "slli" in names  # 64-bit path shifts

    def test_mv_not_neg(self):
        program = assemble("mv a0, a1\nnot a2, a3\nneg a4, a5\n")
        names = [i.name for i in decode_all(program)]
        assert names == ["addi", "xori", "sub"]

    def test_ret_and_call(self):
        program = assemble(
            """
            _start:
              call f
              ret
            f:
              ret
            """
        )
        instrs = decode_all(program)
        assert instrs[0].name == "jal" and instrs[0].rd == 1
        assert instrs[1].name == "jalr" and instrs[1].rd == 0
        assert instrs[1].rs1 == 1

    def test_hi_lo(self):
        program = assemble(
            """
            .data
            v: .dword 7
            .text
            lui a0, %hi(v)
            ld a1, %lo(v)(a0)
            """
        )
        instrs = decode_all(program)
        address = program.symbols["v"]
        hi = instrs[0].imm << 12
        # lui sign-extension irrelevant at our small addresses
        assert hi + instrs[1].imm == address

    @pytest.mark.parametrize("mnemonic", [
        "call", "j", "tail", "beqz", "bnez", "bltz", "bgez", "blez",
        "bgtz", "bgt", "bgtu", "ble", "bleu"])
    def test_branch_without_operands_is_an_assembler_error(self,
                                                           mnemonic):
        # was a raw IndexError: the target was read before the count
        with pytest.raises(AssemblerError, match="expects"):
            assemble(f"main:\n  {mnemonic}\n")


class TestDataSection:
    def test_word_dword_byte(self):
        program = assemble(
            """
            .data
            a: .byte 1, 2
            b: .half 0x0304
            c: .word 0x05060708
            d: .dword 0x090A0B0C0D0E0F10
            """
        )
        assert program.data[:2] == bytes([1, 2])
        assert program.data[2:4] == (0x0304).to_bytes(2, "little")
        assert program.data[4:8] == (0x05060708).to_bytes(4, "little")
        assert program.data[8:16] == (0x090A0B0C0D0E0F10).to_bytes(8, "little")

    def test_asciz(self):
        program = assemble('.data\nmsg: .asciz "hi\\n"\n')
        assert program.data == b"hi\n\x00"

    def test_space_and_align(self):
        program = assemble(
            """
            .data
            x: .byte 1
            .align 8
            y: .dword 2
            """
        )
        assert program.symbols["y"] % 8 == 0
        assert program.symbols["y"] - program.symbols["x"] == 8

    def test_data_base_follows_text(self):
        program = assemble(
            """
            nop
            .data
            v: .word 1
            """
        )
        assert program.data_base >= program.text_base + len(program.text)
        assert program.data_base % 8 == 0

    def test_equ(self):
        program = assemble(
            """
            .equ SIZE, 40
            li a0, SIZE
            """
        )
        assert decode_all(program)[0].imm == 40

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\naddi a0, a0, 1\n")

    def test_data_directive_in_text_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 5\n")

    def test_negative_space_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\n.space -1\n")

    def test_align_power_of_two(self):
        with pytest.raises(AssemblerError):
            assemble(".data\n.align 3\n")


#: what the string escapes of a data line stand for (see _ESCAPES)
_ESCAPED = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
            "\r": "\\r", "\0": "\\0"}

#: latin-1 characters that end a line (str.splitlines)
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85"

_RAW_CHARS = st.sampled_from('"\\#/,\' ') | st.characters(
    min_codepoint=0, max_codepoint=0xFF,
    blacklist_characters=_LINE_BREAKS)

#: a string may also hold the line breaks that have an escape
_STRING_CHARS = _RAW_CHARS | st.sampled_from("\n\r")


def _quoted(text: str) -> str:
    return '"' + "".join(_ESCAPED.get(ch, ch) for ch in text) + '"'


class TestLiterals:
    """Quotes, escapes, commas and comment markers inside string and
    character literals (one scanner serves comments and operands)."""

    def test_escaped_backslash_before_a_comment(self):
        program = assemble('.data\nmsg: .asciz "C:\\\\" # note\n')
        assert program.data == b"C:\\\x00"

    def test_asciz_list_terminates_every_string(self):
        program = assemble('.data\nmsg: .asciz "a", "b"\n')
        assert program.data == b"a\x00b\x00"

    def test_ascii_list_concatenates(self):
        program = assemble('.data\nmsg: .ascii "a,b", "#c"  // note\n')
        assert program.data == b"a,b#c"

    def test_text_after_a_closing_quote_is_rejected(self):
        with pytest.raises(AssemblerError, match="after the string"):
            assemble('.data\n.asciz "a" b\n')
        with pytest.raises(AssemblerError, match="quoted string"):
            assemble('.data\n.asciz "a\\"\n')

    def test_string_outside_latin_1_is_an_assembler_error(self):
        # was a raw UnicodeEncodeError, a traceback from `eric package`
        with pytest.raises(AssemblerError, match="latin-1"):
            assemble('.data\n.asciz "\u20ac"\n')

    def test_character_literals_hold_commas_and_comment_markers(self):
        program = assemble(".data\n.byte ','\n.byte '#', 1  # c\n"
                           ".byte '\\'', '/'\n")
        assert program.data == b",#\x01'/"

    def test_character_literal_immediate(self):
        [instr] = decode_all(assemble("li a0, '#'  # hash\n"))
        assert instr.imm == ord("#")

    @settings(max_examples=150, deadline=None)
    @given(strings=st.lists(st.text(_STRING_CHARS, max_size=12),
                            min_size=1, max_size=4),
           terminate=st.booleans(),
           comment=st.sampled_from(["#", "//", " # ", "\t// "]),
           note=st.text(_RAW_CHARS, max_size=10),
           separator=st.sampled_from([",", ", ", " , "]))
    def test_data_lines_assemble_to_their_bytes(self, strings, terminate,
                                                comment, note, separator):
        directive = ".asciz" if terminate else ".ascii"
        line = (f"msg: {directive} "
                + separator.join(_quoted(text) for text in strings)
                + comment + note)
        program = assemble(".data\n" + line + "\n")
        nul = b"\x00" if terminate else b""
        assert program.data == b"".join(text.encode("latin-1") + nul
                                        for text in strings)


class TestCompression:
    SOURCE = """
        _start:
          li a0, 5
          mv a1, a0
          add a1, a1, a0
          addi sp, sp, -32
          sd a0, 8(sp)
          ld a2, 8(sp)
          addi sp, sp, 32
          sub s0, s0, s1
          beq a0, a1, _start
          ecall
    """

    def test_compression_shrinks_text(self):
        plain = assemble(self.SOURCE, compress=False)
        small = assemble(self.SOURCE, compress=True)
        assert len(small.text) < len(plain.text)
        assert small.instruction_count == plain.instruction_count
        assert small.compressed_count > 0
        assert plain.compressed_count == 0

    def test_compressed_program_decodes_identically(self):
        plain = assemble(self.SOURCE, compress=False)
        small = assemble(self.SOURCE, compress=True)
        # Same instruction semantics in both images (branch offsets differ).
        plain_names = [i.name for i in decode_all(plain)]
        small_names = [i.name for i in decode_all(small)]
        assert plain_names == small_names

    def test_layout_matches_text(self):
        program = assemble(self.SOURCE, compress=True)
        end = program.layout[-1].offset + program.layout[-1].size
        assert end == len(program.text)
        # slots are contiguous
        cursor = 0
        for slot in program.layout:
            assert slot.offset == cursor
            cursor += slot.size

    def test_branches_stay_uncompressed(self):
        program = assemble(self.SOURCE, compress=True)
        lines = disassemble_text(program.text)
        assert any("beq" in line and "c." not in line for line in lines)


class TestPlainSerialization:
    def test_roundtrip(self):
        from repro.asm.program import Program
        program = assemble(self.source(), compress=True)
        blob = program.serialize_plain()
        back = Program.deserialize_plain(blob)
        assert back.text == program.text
        assert back.data == program.data
        assert back.entry == program.entry
        assert back.layout == program.layout

    def test_corrupt_magic_rejected(self):
        from repro.asm.program import Program
        from repro.errors import PackageFormatError
        blob = bytearray(assemble(self.source()).serialize_plain())
        blob[0] ^= 0xFF
        with pytest.raises(PackageFormatError):
            Program.deserialize_plain(bytes(blob))

    def test_truncated_rejected(self):
        from repro.asm.program import Program
        from repro.errors import PackageFormatError
        blob = assemble(self.source()).serialize_plain()
        with pytest.raises(PackageFormatError):
            Program.deserialize_plain(blob[:10])
        with pytest.raises(PackageFormatError):
            Program.deserialize_plain(blob[:-1])

    @staticmethod
    def source():
        return """
        _start:
          li a0, 1
          sd a0, 0(sp)
          ecall
        .data
        v: .dword 99
        """


@functools.lru_cache(maxsize=None)
def _workload_assembly() -> tuple[tuple[str, ...], ...]:
    """The 8 workloads' compiled assembly, one tuple of lines each."""
    from repro.cc.driver import compile_source
    from repro.workloads import all_workloads

    return tuple(
        tuple(compile_source(w.source, name=name).asm_text.split("\n"))
        for name, w in sorted(all_workloads().items()))


@st.composite
def _mutated_program(draw) -> str:
    """One workload's assembly with one line edited: a character
    deleted or inserted, the line cut short, or its operands dropped
    (the line cut after its first word)."""
    lines = list(draw(st.sampled_from(_workload_assembly())))
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    edit = draw(st.sampled_from(["delete", "insert", "cut", "operands"]))
    if edit == "operands":
        at = re.match(r"\s*\S*", line).end()
    else:
        at = draw(st.integers(0, len(line)))
    if edit == "delete":
        line = line[:at] + line[at + 1:]
    elif edit == "insert":
        line = (line[:at] + draw(st.characters(max_codepoint=0xFF))
                + line[at:])
    else:
        line = line[:at]
    lines[index] = line
    return "\n".join(lines)


class TestMutatedAssembly:
    """Untrusted assembly fails only with :class:`AssemblerError`."""

    @settings(max_examples=200, deadline=None)
    @given(source=_mutated_program())
    def test_mutated_workload_lines_raise_only_assembler_errors(
            self, source):
        try:
            assemble(source)
        except AssemblerError:
            pass
