"""The MiniC compiler driver: source text -> :class:`repro.asm.Program`.

This is the "baseline compiler" of Fig. 6: the ERIC driver
(:mod:`repro.core.compiler_driver`) wraps it and adds the signature +
encryption + packaging stage, and the figure compares the two wall-clock
times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.cc import ast_nodes as ast
from repro.cc.codegen import generate_assembly
from repro.cc.irgen import generate as generate_ir
from repro.cc.opt import optimize_module
from repro.cc.parser import parse
from repro.cc.runtime import LIBRARY_SOURCE, RUNTIME_ASM
from repro.cc.sema import analyze
from repro.errors import CompileError


@dataclass
class CompileResult:
    program: Program
    asm_text: str
    name: str


def compile_source(source: str, name: str = "program",
                   optimize: bool = True, compress: bool = False,
                   text_base: int = 0x10000,
                   include_library: bool = True) -> CompileResult:
    """Compile MiniC ``source`` to a loadable :class:`Program`.

    Args:
        source: MiniC translation unit (must define ``main``).
        optimize: run the IR pass pipeline (-O1 vs -O0).
        compress: emit RVC compressed instructions where possible
            (the paper's RV64GC configuration).
        include_library: compile the MiniC runtime library (print_int,
            print_str) into the program; disable only for tests that
            provide their own.
    """
    full_source = source + ("\n" + LIBRARY_SOURCE if include_library else "")
    unit = analyze(parse(full_source))
    if not any(fn.name == "main" for fn in unit.functions):
        raise CompileError(f"{name}: no main() defined")

    module = generate_ir(unit)
    if optimize:
        optimize_module(module)

    lines = [RUNTIME_ASM]
    lines.extend(generate_assembly(module))
    lines.append(_data_section(unit, module))
    asm_text = "\n".join(lines)
    program = assemble(asm_text, name=name, text_base=text_base,
                       compress=compress)
    return CompileResult(program=program, asm_text=asm_text, name=name)


def _data_section(unit: ast.TranslationUnit, module) -> str:
    """Emit globals and interned strings."""
    out = [".data"]
    for gvar in unit.globals:
        ctype = gvar.var_type
        if ctype.size >= 8:
            out.append(".align 8")
        out.append(f"{gvar.name}:")
        out.append(_global_payload(gvar, module))
    for text, symbol in module.strings.items():
        out.append(f"{symbol}:")
        out.append(f'.asciz "{_escape(text)}"')
    return "\n".join(out)


def _global_payload(gvar: ast.GlobalVar, module) -> str:
    ctype = gvar.var_type
    init = gvar.init
    if ctype.kind in ("int", "ptr"):
        if isinstance(init, str):
            # char *s = "..." — point at the interned string literal.
            return f".dword {module.intern_string(init)}"
        return f".dword {init or 0}"
    if ctype.kind == "char":
        return f".byte {init or 0}"
    if ctype.kind == "array":
        element = ctype.base
        if isinstance(init, str):
            payload = init.encode("latin-1") + b"\x00"
            padded = payload.ljust(ctype.count, b"\x00")
            values = ", ".join(str(b) for b in padded)
            return f".byte {values}"
        values = list(init) if isinstance(init, list) else []
        values += [0] * (ctype.count - len(values))
        directive = ".dword" if element.kind in ("int", "ptr") else ".byte"
        if element.kind == "char":
            values = [v & 0xFF for v in values]
        joined = ", ".join(str(v) for v in values)
        return f"{directive} {joined}"
    raise CompileError(f"cannot emit global of type {ctype}")


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\0":
            out.append("\\0")
        else:
            out.append(ch)
    return "".join(out)
