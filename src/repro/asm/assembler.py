"""Two-pass RISC-V assembler.

Supports the RV64IM instruction set from :mod:`repro.isa`, the standard
pseudo-instructions, data directives, and optional RVC compression.

Design notes
------------
* **Deterministic sizing.**  Pass 1 fully encodes every statement whose
  operands are numeric (applying RVC compression when enabled) and records
  a fixed-size *fixup* for every label-dependent statement (branches,
  jumps, ``la``, ``%hi/%lo``).  Fixups are never compressed, so all
  addresses are known after pass 1 — no relaxation iterations.
* **Slot layout.**  The assembler emits the per-instruction slot table the
  ERIC encryption map is built on (offset and 2/4-byte size per slot).
* **Sections.**  ``.text`` and ``.data``; data is placed at the first
  8-aligned address after text.

Syntax accepted::

    # comment, // comment
    .text / .data / .globl sym / .equ NAME, value
    .byte v, ... / .half v, ... / .word v, ... / .dword v, ...
    .asciz "s", ... / .ascii "s", ... / .space n / .align n  (data only)
    'c' character literals wherever a number goes
    label:  instruction
    add rd, rs1, rs2        ld rd, 16(sp)      sw t0, off(a1)
    beq a0, a1, label       jal label          li t0, 0x1234
    la a0, buffer           lui t0, %hi(sym)   addi t0, t0, %lo(sym)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.asm.program import InstructionSlot, Program
from repro.errors import AssemblerError, EncodingError
from repro.isa.compressed import compress
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.pseudo import (
    PC_RELATIVE_PSEUDOS,
    SIMPLE_PSEUDOS,
    expand_pseudo,
)
from repro.isa.spec import INSTRUCTION_SPECS, LOADS, STORES, parse_register

DEFAULT_TEXT_BASE = 0x10000

_MEM_OPERAND = re.compile(r"^(.*)\((\w+)\)$")
_LABEL_DEF = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_SYMBOL = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_HI_LO = re.compile(r"^%(hi|lo)\(([^()]+)\)$")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}


@dataclass
class _Fixup:
    """A label-dependent statement finalized in pass 2."""

    kind: str            # 'branch' | 'jump' | 'la' | 'instr'
    mnemonic: str
    operands: list[str]
    line_no: int
    offset: int          # text offset of the first emitted byte
    size: int            # total bytes (4, or 8 for la)


class Assembler:
    """See module docstring.

    Args:
        text_base: load address of the text section.
        compress: enable RVC compression of eligible instructions
            (the paper's RV64GC configuration vs plain RV64G).
    """

    def __init__(self, text_base: int = DEFAULT_TEXT_BASE,
                 compress: bool = False) -> None:
        self.text_base = text_base
        self.compress = compress

    # -- public API ----------------------------------------------------

    def assemble(self, source: str, name: str = "") -> Program:
        self._symbols: dict[str, int] = {}
        self._equs: dict[str, int] = {}
        self._text = bytearray()
        self._slots: list[InstructionSlot] = []
        self._fixups: list[_Fixup] = []
        self._data = bytearray()
        self._data_fixups: list[tuple[int, int, str, int]] = []
        self._label_sites: list[tuple[str, str, int, int]] = []
        self._section = "text"

        # "\n" alone ends a line: str.splitlines() would also break at
        # \x0b, \x0c, \x1c-\x1e and \x85, which a string may hold raw
        for line_no, raw_line in enumerate(source.split("\n"), start=1):
            try:
                self._line(raw_line, line_no)
            except EncodingError as exc:
                raise AssemblerError(f"line {line_no}: {exc}") from None

        data_base = _align_up(self.text_base + len(self._text), 8)
        for label, section, offset, line_no in self._label_sites:
            base = self.text_base if section == "text" else data_base
            if label in self._symbols or label in self._equs:
                raise AssemblerError(f"line {line_no}: duplicate label "
                                     f"{label!r}")
            self._symbols[label] = base + offset

        self._apply_fixups()
        for offset, width, token, line_no in self._data_fixups:
            value = self._symbol_value(token, line_no)
            masked = value & ((1 << (width * 8)) - 1)
            self._data[offset:offset + width] = masked.to_bytes(width,
                                                                "little")

        entry = self._symbols.get("_start", self.text_base)
        return Program(
            text=bytes(self._text),
            data=bytes(self._data),
            text_base=self.text_base,
            data_base=data_base,
            entry=entry,
            layout=tuple(self._slots),
            symbols=dict(self._symbols),
            name=name,
        )

    # -- pass 1: line handling ------------------------------------------

    def _line(self, raw_line: str, line_no: int) -> None:
        line = _strip_comment(raw_line).strip()
        while True:
            match = _LABEL_DEF.match(line)
            if not match:
                break
            label = match.group(1)
            offset = (len(self._text) if self._section == "text"
                      else len(self._data))
            self._label_sites.append((label, self._section, offset, line_no))
            line = line[match.end():].strip()
        if not line:
            return
        if line.startswith("."):
            self._directive(line, line_no)
        else:
            self._statement(line, line_no)

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            self._section = "text"
        elif name == ".data":
            self._section = "data"
        elif name in (".globl", ".global", ".type", ".size", ".file",
                      ".option", ".attribute", ".p2align"):
            pass  # accepted and ignored
        elif name == ".equ":
            try:
                sym, value = [p.strip() for p in rest.split(",", 1)]
            except ValueError:
                raise AssemblerError(
                    f"line {line_no}: .equ needs 'name, value'") from None
            self._equs[sym] = self._number(value, line_no)
        elif name in (".byte", ".half", ".word", ".dword"):
            width = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[name]
            self._emit_data_values(rest, width, line_no)
        elif name in (".asciz", ".ascii"):
            strings = _split_operands(rest)
            if not strings:
                raise AssemblerError(
                    f"line {line_no}: expected a quoted string")
            for token in strings:
                try:
                    blob = _parse_string(token, line_no).encode("latin-1")
                except UnicodeEncodeError:
                    raise AssemblerError(
                        f"line {line_no}: {token} holds a character "
                        f"outside latin-1") from None
                if name == ".asciz":
                    blob += b"\x00"
                self._emit_data_bytes(blob, line_no)
        elif name in (".space", ".zero"):
            count = self._number(rest.strip(), line_no)
            if count < 0:
                raise AssemblerError(f"line {line_no}: negative .space")
            self._emit_data_bytes(bytes(count), line_no)
        elif name == ".align":
            if self._section != "data":
                raise AssemblerError(
                    f"line {line_no}: .align is only supported in .data")
            alignment = self._number(rest.strip(), line_no)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AssemblerError(
                    f"line {line_no}: .align needs a power of two")
            pad = (-len(self._data)) % alignment
            self._data.extend(bytes(pad))
        else:
            raise AssemblerError(f"line {line_no}: unknown directive {name}")

    def _emit_data_values(self, rest: str, width: int, line_no: int) -> None:
        if self._section != "data":
            raise AssemblerError(
                f"line {line_no}: data directive outside .data")
        for token in _split_operands(rest):
            if self._is_symbolic(token):
                # Symbol-valued data (e.g. a string-pointer global):
                # emit a placeholder now, patch after addresses are known.
                self._data_fixups.append(
                    (len(self._data), width, token, line_no))
                self._data.extend(bytes(width))
                continue
            value = self._number(token, line_no) & ((1 << (width * 8)) - 1)
            self._data.extend(value.to_bytes(width, "little"))

    def _emit_data_bytes(self, blob: bytes, line_no: int) -> None:
        if self._section != "data":
            raise AssemblerError(
                f"line {line_no}: data directive outside .data")
        self._data.extend(blob)

    # -- pass 1: instructions --------------------------------------------

    def _statement(self, line: str, line_no: int) -> None:
        if self._section != "text":
            raise AssemblerError(
                f"line {line_no}: instruction outside .text: {line!r}")
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operands = _split_operands(parts[1]) if len(parts) > 1 else []

        if mnemonic == "jal" and operands \
                and self._is_symbolic(operands[-1]):
            self._add_fixup("jump", mnemonic, operands, line_no, size=4)
            return
        if mnemonic != "jal" and mnemonic in PC_RELATIVE_PSEUDOS \
                or self._is_label_branch(mnemonic, operands):
            self._add_fixup("branch", mnemonic, operands, line_no, size=4)
            return
        if mnemonic == "la":
            self._add_fixup("la", mnemonic, operands, line_no, size=8)
            return
        if self._uses_hi_lo(operands):
            self._add_fixup("instr", mnemonic, operands, line_no, size=4)
            return

        if mnemonic in SIMPLE_PSEUDOS:
            for instr in self._expand_simple(mnemonic, operands, line_no):
                self._emit(instr)
            return

        instr = self._parse_instruction(mnemonic, operands, line_no)
        self._emit(instr)

    def _is_label_branch(self, mnemonic: str, operands: list[str]) -> bool:
        if mnemonic not in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            return False
        return bool(operands) and self._is_symbolic(operands[-1])

    def _is_symbolic(self, token: str) -> bool:
        token = token.split("+")[0].split("-")[0].strip() or token
        if token in self._equs:
            return False
        if _SYMBOL.match(token) and not _is_register_name(token):
            return True
        return False

    @staticmethod
    def _uses_hi_lo(operands: list[str]) -> bool:
        return any(_HI_LO.match(op) or _HI_LO.match(_memory_imm(op) or "")
                   for op in operands)

    def _add_fixup(self, kind: str, mnemonic: str, operands: list[str],
                   line_no: int, size: int) -> None:
        self._fixups.append(_Fixup(kind, mnemonic, operands, line_no,
                                   offset=len(self._text), size=size))
        start = len(self._text)
        self._text.extend(bytes(size))
        for sub in range(size // 4):
            self._slots.append(InstructionSlot(offset=start + sub * 4,
                                               size=4))

    def _expand_simple(self, mnemonic: str, operands: list[str],
                       line_no: int) -> list[Instruction]:
        values: list[int] = []
        for i, token in enumerate(operands):
            if _is_register_name(token):
                values.append(parse_register(token))
            else:
                values.append(self._number(token, line_no))
        return expand_pseudo(mnemonic, values)

    def _parse_instruction(self, mnemonic: str, operands: list[str],
                           line_no: int) -> Instruction:
        if mnemonic not in INSTRUCTION_SPECS:
            raise AssemblerError(
                f"line {line_no}: unknown instruction {mnemonic!r}")
        fmt = INSTRUCTION_SPECS[mnemonic][0]
        if mnemonic in ("ecall", "ebreak", "fence"):
            _expect(operands, 0, mnemonic, line_no)
            return Instruction(mnemonic)
        if mnemonic in LOADS:
            _expect(operands, 2, mnemonic, line_no)
            imm, base = self._memory(operands[1], line_no)
            return Instruction(mnemonic, rd=parse_register(operands[0]),
                               rs1=base, imm=imm)
        if mnemonic in STORES:
            _expect(operands, 2, mnemonic, line_no)
            imm, base = self._memory(operands[1], line_no)
            return Instruction(mnemonic, rs2=parse_register(operands[0]),
                               rs1=base, imm=imm)
        if mnemonic == "jalr":
            if len(operands) == 1:
                return Instruction("jalr", rd=1,
                                   rs1=parse_register(operands[0]), imm=0)
            _expect(operands, 3, mnemonic, line_no)
            return Instruction("jalr", rd=parse_register(operands[0]),
                               rs1=parse_register(operands[1]),
                               imm=self._number(operands[2], line_no))
        if fmt == "R":
            _expect(operands, 3, mnemonic, line_no)
            return Instruction(mnemonic,
                               rd=parse_register(operands[0]),
                               rs1=parse_register(operands[1]),
                               rs2=parse_register(operands[2]))
        if fmt in ("I", "SHIFT64", "SHIFT32"):
            _expect(operands, 3, mnemonic, line_no)
            return Instruction(mnemonic,
                               rd=parse_register(operands[0]),
                               rs1=parse_register(operands[1]),
                               imm=self._number(operands[2], line_no))
        if fmt == "B":
            _expect(operands, 3, mnemonic, line_no)
            return Instruction(mnemonic,
                               rs1=parse_register(operands[0]),
                               rs2=parse_register(operands[1]),
                               imm=self._number(operands[2], line_no))
        if fmt in ("U", "J"):
            _expect(operands, 2, mnemonic, line_no)
            return Instruction(mnemonic,
                               rd=parse_register(operands[0]),
                               imm=self._number(operands[1], line_no))
        raise AssemblerError(f"line {line_no}: cannot parse {mnemonic}")

    def _emit(self, instr: Instruction) -> None:
        if self.compress:
            halfword = compress(instr)
            if halfword is not None:
                self._slots.append(
                    InstructionSlot(offset=len(self._text), size=2))
                self._text.extend(halfword.to_bytes(2, "little"))
                return
        self._slots.append(InstructionSlot(offset=len(self._text), size=4))
        self._text.extend(encode(instr).to_bytes(4, "little"))

    # -- pass 2: fixups ---------------------------------------------------

    def _apply_fixups(self) -> None:
        for fixup in self._fixups:
            pc = self.text_base + fixup.offset
            try:
                blob = b"".join(encode(w).to_bytes(4, "little")
                                for w in self._resolve_fixup(fixup, pc))
            except EncodingError as exc:
                raise AssemblerError(
                    f"line {fixup.line_no}: {exc}") from None
            if len(blob) != fixup.size:
                raise AssemblerError(
                    f"line {fixup.line_no}: fixup size mismatch")
            self._text[fixup.offset:fixup.offset + fixup.size] = blob

    def _resolve_fixup(self, fixup: _Fixup, pc: int) -> list[Instruction]:
        line_no = fixup.line_no
        name = fixup.mnemonic
        ops = fixup.operands
        if fixup.kind == "la":
            _expect(ops, 2, name, line_no)
            rd = parse_register(ops[0])
            address = self._symbol_value(ops[1], line_no)
            hi = (address + 0x800) >> 12
            lo = address - (hi << 12)
            return [Instruction("lui", rd=rd, imm=hi & 0xFFFFF),
                    Instruction("addiw", rd=rd, rs1=rd, imm=lo)]
        if fixup.kind == "jump":
            if len(ops) > 2:
                raise AssemblerError(
                    f"line {line_no}: jal expects 1 or 2 operands, "
                    f"got {len(ops)}")
            rd = 1 if len(ops) == 1 else parse_register(ops[0])
            target = self._symbol_value(ops[-1], line_no)
            return [Instruction("jal", rd=rd, imm=target - pc)]
        if fixup.kind == "branch":
            return self._resolve_branch(name, ops, pc, line_no)
        if fixup.kind == "instr":
            resolved = [self._resolve_hi_lo(op, line_no) for op in ops]
            return [self._parse_instruction(name, resolved, line_no)]
        raise AssemblerError(f"line {line_no}: unhandled fixup {fixup.kind}")

    def _resolve_branch(self, name: str, ops: list[str], pc: int,
                        line_no: int) -> list[Instruction]:
        if not ops:
            raise AssemblerError(
                f"line {line_no}: {name} expects a target operand")
        target = self._symbol_value(ops[-1], line_no)
        offset = target - pc

        if name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            _expect(ops, 3, name, line_no)
            return [Instruction(name, rs1=parse_register(ops[0]),
                                rs2=parse_register(ops[1]), imm=offset)]
        if name in ("j", "tail"):
            _expect(ops, 1, name, line_no)
            return [Instruction("jal", rd=0, imm=offset)]
        if name == "call":
            _expect(ops, 1, name, line_no)
            return [Instruction("jal", rd=1, imm=offset)]
        zero_compares = {"beqz": ("beq", False), "bnez": ("bne", False),
                         "bltz": ("blt", False), "bgez": ("bge", False),
                         "blez": ("bge", True), "bgtz": ("blt", True)}
        if name in zero_compares:
            _expect(ops, 2, name, line_no)
            real, reversed_ = zero_compares[name]
            rs = parse_register(ops[0])
            rs1, rs2 = (0, rs) if reversed_ else (rs, 0)
            return [Instruction(real, rs1=rs1, rs2=rs2, imm=offset)]
        swapped = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
        if name in swapped:
            _expect(ops, 3, name, line_no)
            return [Instruction(swapped[name], rs1=parse_register(ops[1]),
                                rs2=parse_register(ops[0]), imm=offset)]
        raise AssemblerError(f"line {line_no}: unknown branch pseudo {name}")

    # -- operand parsing ----------------------------------------------------

    def _memory(self, token: str, line_no: int) -> tuple[int, int]:
        match = _MEM_OPERAND.match(token.strip())
        if not match:
            raise AssemblerError(
                f"line {line_no}: expected imm(reg), got {token!r}")
        imm_text = match.group(1).strip() or "0"
        hi_lo = _HI_LO.match(imm_text)
        if hi_lo:
            imm = self._resolve_hi_lo_value(hi_lo, line_no)
        else:
            imm = self._number(imm_text, line_no)
        return imm, parse_register(match.group(2))

    def _resolve_hi_lo(self, token: str, line_no: int) -> str:
        mem = _MEM_OPERAND.match(token.strip())
        if mem and _is_register_name(mem.group(2)):
            inner = _HI_LO.match(mem.group(1).strip())
            if inner:
                value = self._resolve_hi_lo_value(inner, line_no)
                return f"{value}({mem.group(2)})"
            return token
        match = _HI_LO.match(token.strip())
        if match:
            return str(self._resolve_hi_lo_value(match, line_no))
        return token

    def _resolve_hi_lo_value(self, match: re.Match, line_no: int) -> int:
        address = self._symbol_value(match.group(2).strip(), line_no)
        hi = (address + 0x800) >> 12
        if match.group(1) == "hi":
            return hi & 0xFFFFF
        return address - (hi << 12)

    def _symbol_value(self, token: str, line_no: int) -> int:
        token = token.strip()
        for sep in ("+", "-"):
            idx = token.find(sep, 1)
            if idx > 0:
                base = self._symbol_value(token[:idx], line_no)
                delta = self._number(token[idx + 1:], line_no)
                return base + delta if sep == "+" else base - delta
        if token in self._symbols:
            return self._symbols[token]
        if token in self._equs:
            return self._equs[token]
        try:
            return self._number(token, line_no)
        except AssemblerError:
            raise AssemblerError(
                f"line {line_no}: undefined symbol {token!r}") from None

    def _number(self, token: str, line_no: int) -> int:
        token = token.strip()
        if token in self._equs:
            return self._equs[token]
        if len(token) >= 3 and token.startswith("'") and token.endswith("'"):
            inner = token[1:-1]
            if inner.startswith("\\"):
                if inner[1:] not in _ESCAPES:
                    raise AssemblerError(
                        f"line {line_no}: bad escape {token!r}")
                return ord(_ESCAPES[inner[1:]])
            if len(inner) == 1:
                return ord(inner)
            raise AssemblerError(f"line {line_no}: bad char literal {token!r}")
        try:
            return int(token, 0)
        except ValueError:
            raise AssemblerError(
                f"line {line_no}: expected a number, got {token!r}"
            ) from None


def assemble(source: str, name: str = "",
             text_base: int = DEFAULT_TEXT_BASE,
             compress: bool = False) -> Program:
    """One-shot convenience wrapper around :class:`Assembler`."""
    return Assembler(text_base=text_base, compress=compress) \
        .assemble(source, name=name)


# -- helpers ------------------------------------------------------------


def _literal_end(text: str, start: int) -> int:
    """Index just past the string (``"..."``) or character (``'.'``)
    literal whose opening quote is ``text[start]``, or -1 when nothing
    closes it.  Inside a literal a backslash escapes the next
    character, so ``"C:\\"`` ends at its last quote and ``'\''`` is
    one literal."""
    quote = text[start]
    i, end = start + 1, len(text)
    while i < end:
        ch = text[i]
        if ch == quote:
            return i + 1
        i += 2 if ch == "\\" else 1
    return -1


def _unquoted(text: str):
    """Yield ``(index, char)`` for each character of ``text`` outside
    its literals; an unclosed literal runs to the end of the text."""
    i, end = 0, len(text)
    while i < end:
        ch = text[i]
        if ch == '"' or ch == "'":
            i = _literal_end(text, i)
            if i < 0:
                return
        else:
            yield i, ch
            i += 1


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` or ``//`` outside a literal."""
    if '"' in line or "'" in line:
        for i, ch in _unquoted(line):
            if ch == "#" or (ch == "/" and line.startswith("/", i + 1)):
                return line[:i]
        return line
    cut = line.find("#")
    slash = line.find("//")
    if slash >= 0 and (cut < 0 or slash < cut):
        cut = slash
    return line if cut < 0 else line[:cut]


def _split_operands(text: str) -> list[str]:
    """Split ``text`` at its commas outside parentheses and literals;
    an empty last operand is dropped."""
    parts = text.split(",")
    if '"' in text or "'" in text or any(
            part.count("(") != part.count(")") for part in parts):
        parts, depth, start = [], 0, 0
        for i, ch in _unquoted(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(text[start:i])
                start = i + 1
        parts.append(text[start:])
    operands = [part.strip() for part in parts]
    if not operands[-1]:
        operands.pop()
    return operands


def _expect(operands: list[str], count: int, mnemonic: str,
            line_no: int) -> None:
    if len(operands) != count:
        raise AssemblerError(
            f"line {line_no}: {mnemonic} expects {count} operands, "
            f"got {len(operands)}"
        )


def _memory_imm(token: str) -> str | None:
    match = _MEM_OPERAND.match(token.strip())
    return match.group(1).strip() if match else None


def _is_register_name(token: str) -> bool:
    try:
        parse_register(token)
        return True
    except EncodingError:
        return False


def _parse_string(token: str, line_no: int) -> str:
    """One string literal operand, escapes decoded."""
    end = _literal_end(token, 0) if token.startswith('"') else -1
    if end < 0:
        raise AssemblerError(f"line {line_no}: expected a quoted string, "
                             f"got {token!r}")
    if end != len(token):
        raise AssemblerError(f"line {line_no}: unexpected text after "
                             f"the string in {token!r}")
    body = token[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            nxt = body[i + 1]  # a closed literal ends in no lone backslash
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
                continue
            raise AssemblerError(f"line {line_no}: bad escape \\{nxt}")
        out.append(ch)
        i += 1
    return "".join(out)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
