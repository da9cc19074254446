"""Closure-compiled host-code execution (the engine's fast path).

The generic path interprets every host instruction through the
single-source semantics; that is the oracle, but it costs several
dict/dataclass hops per instruction.  For the benchmark harness each
translated block is instead *pre-compiled* into a list of Python
closures — one per host instruction — operating directly on the
register/flag/memory dicts.  A differential test
(``tests/dbt/test_fastexec.py``) checks the two paths instruction by
instruction.

Each step closure returns ``None`` to fall through or a branch-target
token (the ``Label`` name) when a (taken) control transfer occurs.
:func:`oracle_block` builds steps of the same shape that interpret
through the semantics instead, so one engine loop runs either.
"""

from __future__ import annotations

from typing import Callable

from repro.dbt.machine import ConcreteState
from repro.host_x86 import execute
from repro.host_x86.isa import CMOV_OPS, JCC_OPS, SETCC_OPS
from repro.host_x86.registers import is_low8, parent_of
from repro.isa.alu import ConcreteALU
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg

_MASK = 0xFFFFFFFF

Step = Callable[[dict, dict, dict], str | None]


class FastExecError(Exception):
    """An instruction form the fast path cannot compile."""


def _reader(op) -> Callable[[dict, dict, dict], int]:
    """Closure producing a 32-bit source value."""
    if isinstance(op, Imm):
        value = op.value & _MASK
        return lambda regs, flags, mem: value
    if isinstance(op, Reg):
        if is_low8(op.name):
            parent = parent_of(op.name)
            return lambda regs, flags, mem: regs.get(parent, 0) & 0xFF
        name = op.name
        return lambda regs, flags, mem: regs.get(name, 0)
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda regs, flags, mem: (
            mem.get((a := addr(regs)), 0)
            | mem.get(a + 1, 0) << 8
            | mem.get(a + 2, 0) << 16
            | mem.get(a + 3, 0) << 24
        )
    raise FastExecError(f"unreadable operand {op!r}")


def _byte_reader(op) -> Callable[[dict, dict, dict], int]:
    if isinstance(op, Imm):
        value = op.value & 0xFF
        return lambda regs, flags, mem: value
    if isinstance(op, Reg):
        parent = parent_of(op.name)
        return lambda regs, flags, mem: regs.get(parent, 0) & 0xFF
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda regs, flags, mem: mem.get(addr(regs), 0)
    raise FastExecError(f"unreadable byte operand {op!r}")


def _addr_fn(mem_op: Mem) -> Callable[[dict], int]:
    base = mem_op.base.name if mem_op.base else None
    index = mem_op.index.name if mem_op.index else None
    scale = mem_op.scale
    disp = mem_op.disp & _MASK
    if base and index:
        return lambda regs: (
            regs.get(base, 0) + regs.get(index, 0) * scale + disp
        ) & _MASK
    if base:
        return lambda regs: (regs.get(base, 0) + disp) & _MASK
    if index:
        return lambda regs: (regs.get(index, 0) * scale + disp) & _MASK
    return lambda regs: disp


def _writer(op) -> Callable[[dict, dict, dict, int], None]:
    """Closure storing a 32-bit value into a destination."""
    if isinstance(op, Reg):
        if is_low8(op.name):
            parent = parent_of(op.name)

            def write_low8(regs, flags, mem, value):
                regs[parent] = (regs.get(parent, 0) & 0xFFFFFF00) | (
                    value & 0xFF
                )

            return write_low8
        name = op.name
        def write_reg(regs, flags, mem, value):
            regs[name] = value
        return write_reg
    if isinstance(op, Mem):
        addr = _addr_fn(op)

        def write_mem(regs, flags, mem, value):
            a = addr(regs)
            mem[a] = value & 0xFF
            mem[a + 1] = (value >> 8) & 0xFF
            mem[a + 2] = (value >> 16) & 0xFF
            mem[a + 3] = (value >> 24) & 0xFF

        return write_mem
    raise FastExecError(f"unwritable operand {op!r}")


def _byte_writer(op) -> Callable[[dict, dict, dict, int], None]:
    if isinstance(op, Reg):
        parent = parent_of(op.name)

        def write_low8(regs, flags, mem, value):
            regs[parent] = (regs.get(parent, 0) & 0xFFFFFF00) | (value & 0xFF)

        return write_low8
    if isinstance(op, Mem):
        addr = _addr_fn(op)

        def write_mem(regs, flags, mem, value):
            mem[addr(regs)] = value & 0xFF

        return write_mem
    raise FastExecError(f"unwritable byte operand {op!r}")


def _cond_fn(cc: str) -> Callable[[dict], bool]:
    if cc == "o":
        return lambda flags: flags.get("OF", 0) == 1
    if cc == "no":
        return lambda flags: flags.get("OF", 0) == 0
    if cc == "e":
        return lambda flags: flags.get("ZF", 0) == 1
    if cc == "ne":
        return lambda flags: flags.get("ZF", 0) == 0
    if cc == "s":
        return lambda flags: flags.get("SF", 0) == 1
    if cc == "ns":
        return lambda flags: flags.get("SF", 0) == 0
    if cc == "b":
        return lambda flags: flags.get("CF", 0) == 1
    if cc == "ae":
        return lambda flags: flags.get("CF", 0) == 0
    if cc == "a":
        return lambda flags: flags.get("CF", 0) == 0 and \
            flags.get("ZF", 0) == 0
    if cc == "be":
        return lambda flags: flags.get("CF", 0) == 1 or \
            flags.get("ZF", 0) == 1
    if cc == "l":
        return lambda flags: flags.get("SF", 0) != flags.get("OF", 0)
    if cc == "ge":
        return lambda flags: flags.get("SF", 0) == flags.get("OF", 0)
    if cc == "g":
        return lambda flags: flags.get("ZF", 0) == 0 and \
            flags.get("SF", 0) == flags.get("OF", 0)
    if cc == "le":
        return lambda flags: flags.get("ZF", 0) == 1 or \
            flags.get("SF", 0) != flags.get("OF", 0)
    raise FastExecError(f"unknown condition {cc!r}")


def compile_instruction(instr: Instruction) -> Step:
    """Compile one host instruction into a step closure."""
    name = instr.mnemonic
    ops = instr.operands

    if name == "movl":
        read = _reader(ops[0])
        write = _writer(ops[1])

        def step_movl(regs, flags, mem):
            write(regs, flags, mem, read(regs, flags, mem))
        return step_movl

    if name in ("addl", "subl", "imull", "andl", "orl", "xorl"):
        read_src = _reader(ops[0])
        read_dst = _reader(ops[1])
        write = _writer(ops[1])
        if name == "addl":
            def step_addl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst + src) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if result < dst else 0
                flags["OF"] = ((dst ^ result) & ~(dst ^ src)) >> 31 & 1
            return step_addl
        if name == "subl":
            def step_subl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst - src) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if dst < src else 0
                flags["OF"] = ((dst ^ src) & (dst ^ result)) >> 31 & 1
            return step_subl
        if name == "imull":
            def step_imull(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                sd = dst - (1 << 32) if dst >> 31 else dst
                ss = src - (1 << 32) if src >> 31 else src
                product = sd * ss
                write(regs, flags, mem, product & _MASK)
                overflow = 0 if -(1 << 31) <= product < (1 << 31) else 1
                flags["OF"] = overflow
                flags["CF"] = overflow
            return step_imull
        pyop = {"andl": "&", "orl": "|", "xorl": "^"}[name]

        def step_logic(regs, flags, mem, _op=pyop):
            dst = read_dst(regs, flags, mem)
            src = read_src(regs, flags, mem)
            if _op == "&":
                result = dst & src
            elif _op == "|":
                result = dst | src
            else:
                result = dst ^ src
            write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = 0
            flags["OF"] = 0
        return step_logic

    if name in ("cmpl", "testl"):
        read_src = _reader(ops[0])
        read_dst = _reader(ops[1])
        if name == "cmpl":
            def step_cmpl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst - src) & _MASK
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if dst < src else 0
                flags["OF"] = ((dst ^ src) & (dst ^ result)) >> 31 & 1
            return step_cmpl

        def step_testl(regs, flags, mem):
            result = read_dst(regs, flags, mem) & read_src(regs, flags, mem)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = 0
            flags["OF"] = 0
        return step_testl

    if name == "leal":
        addr = _addr_fn(ops[0])
        write = _writer(ops[1])

        def step_leal(regs, flags, mem):
            write(regs, flags, mem, addr(regs))
        return step_leal

    if name in ("movzbl", "movsbl"):
        read = _byte_reader(ops[0])
        write = _writer(ops[1])
        signed = name == "movsbl"

        def step_movxbl(regs, flags, mem):
            value = read(regs, flags, mem)
            if signed and value & 0x80:
                value |= 0xFFFFFF00
            write(regs, flags, mem, value)
        return step_movxbl

    if name == "movb":
        read = _byte_reader(ops[0])
        write = _byte_writer(ops[1])

        def step_movb(regs, flags, mem):
            write(regs, flags, mem, read(regs, flags, mem))
        return step_movb

    if name in ("negl", "notl", "incl", "decl"):
        read = _reader(ops[0])
        write = _writer(ops[0])
        if name == "negl":
            def step_negl(regs, flags, mem):
                value = read(regs, flags, mem)
                result = (-value) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if 0 < value else 0
                flags["OF"] = (value & result) >> 31 & 1
            return step_negl
        if name == "notl":
            def step_notl(regs, flags, mem):
                write(regs, flags, mem, ~read(regs, flags, mem) & _MASK)
            return step_notl
        delta = 1 if name == "incl" else -1

        def step_incdec(regs, flags, mem, _d=delta):
            value = read(regs, flags, mem)
            result = (value + _d) & _MASK
            write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            if _d == 1:
                flags["OF"] = 1 if value == 0x7FFFFFFF else 0
            else:
                flags["OF"] = 1 if value == 0x80000000 else 0
        return step_incdec

    if name in ("shll", "shrl", "sarl"):
        return _compile_shift(name, ops)

    if name in SETCC_OPS:
        cond = _cond_fn(name[3:])
        write = _byte_writer(ops[0])

        def step_setcc(regs, flags, mem):
            write(regs, flags, mem, 1 if cond(flags) else 0)
        return step_setcc

    if name in CMOV_OPS:
        cond = _cond_fn(name[4:])
        read = _reader(ops[0])
        write = _writer(ops[1])

        def step_cmov(regs, flags, mem):
            if cond(flags):
                write(regs, flags, mem, read(regs, flags, mem))
        return step_cmov

    if name in JCC_OPS and isinstance(ops[0], Label):
        cond = _cond_fn(name[1:])
        target = ops[0].name

        def step_jcc(regs, flags, mem):
            return target if cond(flags) else None
        return step_jcc

    if name == "jmp" and isinstance(ops[0], Label):
        target = ops[0].name

        def step_jmp(regs, flags, mem):
            return target
        return step_jmp

    if name == "cltd":
        def step_cltd(regs, flags, mem):
            regs["edx"] = _MASK if regs.get("eax", 0) >> 31 else 0
        return step_cltd

    if name == "idivl":
        read = _reader(ops[0])

        def step_idivl(regs, flags, mem):
            lo = regs.get("eax", 0)
            hi = regs.get("edx", 0)
            dividend = (hi << 32) | lo
            if dividend >> 63:
                dividend -= 1 << 64
            divisor = read(regs, flags, mem)
            if divisor >> 31:
                divisor -= 1 << 32
            if divisor == 0:
                regs["eax"] = _MASK
                regs["edx"] = lo
                return None
            quotient = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                quotient = -quotient
            remainder = dividend - quotient * divisor
            regs["eax"] = quotient & _MASK
            regs["edx"] = remainder & _MASK
        return step_idivl

    raise FastExecError(f"fast path cannot compile {instr}")


def _compile_shift(name: str, ops) -> Step:
    dest_read = _reader(ops[1])
    dest_write = _writer(ops[1])
    if isinstance(ops[0], Imm):
        count = ops[0].value & 31

        def step_shift_imm(regs, flags, mem):
            if count == 0:
                return None
            value = dest_read(regs, flags, mem)
            if name == "shll":
                result = (value << count) & _MASK
                last_out = (value >> (32 - count)) & 1
            elif name == "shrl":
                result = value >> count
                last_out = (value >> (count - 1)) & 1
            else:
                signed = value - (1 << 32) if value >> 31 else value
                result = (signed >> count) & _MASK
                last_out = (signed >> (count - 1)) & 1
            dest_write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = last_out
        return step_shift_imm

    def step_shift_cl(regs, flags, mem):
        count = regs.get("ecx", 0) & 31
        if count == 0:
            return None
        value = dest_read(regs, flags, mem)
        if name == "shll":
            result = (value << count) & _MASK
            last_out = (value >> (32 - count)) & 1
        elif name == "shrl":
            result = value >> count
            last_out = (value >> (count - 1)) & 1
        else:
            signed = value - (1 << 32) if value >> 31 else value
            result = (signed >> count) & _MASK
            last_out = (signed >> (count - 1)) & 1
        dest_write(regs, flags, mem, result)
        flags["SF"] = result >> 31
        flags["ZF"] = 1 if result == 0 else 0
        flags["CF"] = last_out
    return step_shift_cl


def compile_block(instrs: list[Instruction]) -> list[Step]:
    """Compile a translated block's host code into step closures."""
    return [compile_instruction(instr) for instr in instrs]


_ALU = ConcreteALU()


def _oracle_step(instr: Instruction) -> Step:
    def step_oracle(regs, flags, mem):
        state = ConcreteState(regs, flags, mem)
        branch = execute(instr, state, _ALU).branch
        if branch is None or not branch.cond:
            return None
        target = branch.target
        return target.name if isinstance(target, Label) else repr(target)
    return step_oracle


def oracle_block(instrs: list[Instruction]) -> list[Step]:
    """Step closures interpreting each host instruction through the
    single-source semantics: the ``fast=False`` oracle."""
    return [_oracle_step(instr) for instr in instrs]
