"""TCG lowering, peephole, env caching, block register allocation,
llvmjit TCG optimizer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.benchsuite.suite import build_learning_pair
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.dbt import codegen
from repro.dbt.codegen import (
    ENV_BASE,
    SPILL_BASE,
    BlockAssembler,
    env_mem,
    peephole,
    tb_label,
)
from repro.dbt.engine import DBTEngine
from repro.dbt.llvmjit import optimize_tcg
from repro.dbt.machine import ConcreteState
from repro.dbt.tcg import TcgBlock, TcgCond, TcgOp
from repro.host_x86 import execute as execute_x86
from repro.host_x86 import isa as x86_isa
from repro.host_x86 import parse_instruction as parse
from repro.isa.alu import ConcreteALU
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.learning import learn_rules
from repro.learning.store import RuleStore
from repro.minic import compile_source, interp
from repro.minic.backend import regalloc
from repro.minic.backend.mach import MachineFunction, TargetInfo


class TestAssembler:
    def test_guest_reg_loaded_once(self):
        assembler = BlockAssembler()
        first = assembler.guest_vreg("r0")
        loads = [i for i in assembler.instrs if i.mnemonic == "movl"]
        assert len(loads) == 1
        assert assembler.guest_vreg("r0") == first
        assert len(assembler.instrs) == 1  # no second load

    def test_writeback_only_dirty(self):
        assembler = BlockAssembler()
        assembler.guest_vreg("r0")  # read-only
        dest = assembler.guest_vreg("r1", load=False)
        assembler.emit("movl", Imm(5), Reg(dest))
        assembler.mark_dirty("r1")
        before = len(assembler.instrs)
        assembler.writeback()
        writebacks = assembler.instrs[before:]
        assert len(writebacks) == 1
        assert writebacks[0].operands[1] == env_mem(codegen.REG_OFFSET["r1"])

    def test_flags_have_env_slots(self):
        assembler = BlockAssembler()
        assembler.guest_vreg("flag:N", load=False)
        assembler.mark_dirty("flag:N")
        assembler.writeback()
        assert assembler.instrs[-1].operands[1] == \
            env_mem(codegen.FLAG_OFFSET["N"])


class TestLowering:
    def lower(self, *ops):
        assembler = BlockAssembler()
        for op in ops:
            codegen.lower_tcg_op(assembler, op)
        return assembler

    def test_add_two_address(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=7),
            TcgOp("movi", out="%t2", a=8),
            TcgOp("add", out="%t3", a="%t1", b="%t2"),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        assert mnemonics == ["movl", "movl", "movl", "addl"]

    def test_optimized_add_uses_lea(self):
        assembler = BlockAssembler()
        codegen.lower_tcg_op(assembler, TcgOp("movi", out="%t1", a=7))
        codegen.lower_tcg_op(
            assembler, TcgOp("add", out="%t2", a="%t1", b=5), optimized=True
        )
        assert assembler.instrs[-1].mnemonic == "leal"

    def test_cmp_flags_sub_lowering(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=7),
            TcgOp("cmp_flags", flag="sub", a="%t1", b=3),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        assert "cmpl" in mnemonics
        for cc in ("sets", "sete", "setae", "seto"):
            assert cc in mnemonics
        # All four guest flags are dirty.
        assert {"flag:N", "flag:Z", "flag:C", "flag:V"} <= assembler._dirty

    def test_brcond_writes_back_before_exit(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=1),
            TcgOp("st_reg", reg="r0", a="%t1"),
            TcgOp("brcond", cond=TcgCond.NE, a="%t1", b=0,
                  taken=0x8100, fallthrough=0x8104),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        jcc_index = mnemonics.index("jne")
        writeback = [
            i for i, instr in enumerate(assembler.instrs)
            if instr.mnemonic == "movl"
            and instr.operands[1] == env_mem(codegen.REG_OFFSET["r0"])
        ]
        assert writeback and writeback[0] < jcc_index
        assert assembler.instrs[-1].operands[0].name == tb_label(0x8104)


class TestPeephole:
    def test_copy_propagation(self):
        instrs = [
            parse("movl %eax, %ecx").with_operands(
                (Reg("%v1"), Reg("%v2"))
            ),
            parse("addl %eax, %ecx").with_operands(
                (Reg("%v2"), Reg("%v3"))
            ),
        ]
        # %v2 is just a copy of %v1; the use should read %v1 and the
        # copy should disappear.
        result = peephole(instrs)
        assert len(result) == 1
        assert result[0].operands[0] == Reg("%v1")

    def test_destination_never_substituted(self):
        instrs = [
            parse("movl %eax, %ecx").with_operands((Reg("%v1"), Reg("%v2"))),
            parse("subl $1, %eax").with_operands((Imm(1), Reg("%v2"))),
            parse("movl %eax, %ecx").with_operands(
                (Reg("%v2"), Mem(base=None, disp=0x1000))
            ),
        ]
        result = peephole(instrs)
        # subl's destination %v2 must stay %v2 (two-address semantics).
        assert result[0].operands[1] == Reg("%v2") or \
            result[0].mnemonic == "movl"
        sub = [i for i in result if i.mnemonic == "subl"][0]
        assert sub.operands[1] == Reg("%v2")

    def test_self_move_dropped(self):
        instrs = [
            parse("movl %eax, %eax").with_operands((Reg("%v1"), Reg("%v1"))),
        ]
        assert peephole(instrs) == []

    def test_overwritten_and_chained_dead_movs_dropped(self):
        out = env_mem(codegen.REG_OFFSET["r0"])
        instrs = [
            Instruction("movl", (Imm(1), Reg("%v1"))),  # overwritten
            Instruction("movl", (Imm(2), Reg("%v1"))),
            Instruction("movl", (Reg("%v1"), out)),
            Instruction("movl", (out, Reg("%v2"))),  # read only by %v3
            Instruction("movl", (Reg("%v2"), Reg("%v3"))),  # never read
        ]
        assert peephole(instrs) == instrs[1:3]


class TestLlvmJitOptimizer:
    def test_redundant_reg_load_eliminated(self):
        block = TcgBlock(0x8000)
        block.emit(op="ld_reg", out="%t1", reg="r0")
        block.emit(op="ld_reg", out="%t2", reg="r0")
        block.emit(op="add", out="%t3", a="%t1", b="%t2")
        block.emit(op="st_reg", reg="r1", a="%t3")
        ops = optimize_tcg(block.ops)
        assert sum(1 for op in ops if op.op == "ld_reg") == 1

    def test_dead_store_eliminated(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="st_reg", reg="r0", a="%t1")
        block.emit(op="movi", out="%t2", a=2)
        block.emit(op="st_reg", reg="r0", a="%t2")
        ops = optimize_tcg(block.ops)
        stores = [op for op in ops if op.op == "st_reg"]
        assert len(stores) == 1
        assert stores[0].a == "%t2" or isinstance(stores[0].a, int)

    def test_store_with_intervening_load_kept(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="st_reg", reg="r0", a="%t1")
        block.emit(op="ld_reg", out="%t2", reg="r0")
        block.emit(op="st_reg", reg="r1", a="%t2")
        block.emit(op="movi", out="%t3", a=2)
        block.emit(op="st_reg", reg="r0", a="%t3")
        ops = optimize_tcg(block.ops)
        r0_stores = [op for op in ops if op.op == "st_reg" and op.reg == "r0"]
        assert len(r0_stores) == 2

    def test_dead_temp_removed(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="movi", out="%t2", a=2)  # never used
        block.emit(op="st_reg", reg="r0", a="%t1")
        ops = optimize_tcg(block.ops)
        assert not any(op.out == "%t2" for op in ops)


# -- register allocation --------------------------------------------------------

ALU = ConcreteALU()
EXIT = Instruction("jmp", (Label(codegen.EXIT_LABEL),))
SPILL_START = ENV_BASE + SPILL_BASE


def v(number: int) -> Reg:
    return Reg(f"%v{number}")


def mov(src, dst) -> Instruction:
    return Instruction("movl", (src, dst))


def add(src, dst) -> Instruction:
    return Instruction("addl", (src, dst))


def run_host(instrs) -> ConcreteState:
    """Execute straight-line host code up to its first jump."""
    state = ConcreteState()
    for instr in instrs:
        if x86_isa.is_branch(instr):
            break
        execute_x86(instr, state, ALU)
    return state


def guest_reg(state: ConcreteState, reg: str) -> int:
    return state.load(ENV_BASE + codegen.REG_OFFSET[reg], 4)


def spill_slot(operand) -> int | None:
    if isinstance(operand, Mem) and operand.disp >= SPILL_START:
        return operand.disp
    return None


def spill_stores(instrs) -> list[int]:
    return [spill_slot(i.operands[1]) for i in instrs
            if i.mnemonic == "movl" and spill_slot(i.operands[1])]


def spill_loads(instrs) -> list[int]:
    return [spill_slot(i.operands[0]) for i in instrs
            if i.mnemonic == "movl" and spill_slot(i.operands[0])]


def assert_allocated(instrs) -> None:
    for instr in instrs:
        for reg in instr.registers():
            assert not reg.name.startswith("%"), instr


class TestAllocate:
    def test_byte_operands_land_in_low8_registers(self):
        block = [
            mov(Imm(0), v(2)),  # first value: esi if unconstrained
            mov(Imm(5), v(1)),
            Instruction("cmpl", (Imm(5), v(1))),
            Instruction("sete", (Reg("%v2.b"),),
                        meta={"needs_low8": ("%v2",)}),
            mov(v(2), env_mem(codegen.REG_OFFSET["r0"])),
            mov(Imm(0x41), v(3)),
            Instruction("movb", (Reg("%v3.b"),
                                 env_mem(codegen.REG_OFFSET["r1"])),
                        meta={"needs_low8": ("%v3",)}),
            EXIT,
        ]
        out = codegen.allocate(block)
        assert_allocated(out)
        byte_ops = [i for i in out if i.mnemonic in ("sete", "movb")]
        assert [i.operands[0].name for i in byte_ops] == ["al", "al"]
        state = run_host(out)
        assert guest_reg(state, "r0") == 1
        assert guest_reg(state, "r1") == 0x41

    def test_ecx_stays_free_across_a_variable_shift(self):
        block = [mov(Imm(k), v(k)) for k in range(1, 6)] + [
            mov(v(5), Reg("ecx")),
            mov(Imm(7), v(6)),
            Instruction("shll", (Reg("cl"), v(6))),
        ] + [add(v(k), v(6)) for k in range(1, 5)] + [
            mov(v(6), env_mem(codegen.REG_OFFSET["r0"])),
            EXIT,
        ]
        out = codegen.allocate(block)
        assert_allocated(out)
        naming_ecx = [i for i in out
                      if {r.name for r in i.registers()} & {"ecx", "cl"}]
        assert [i.mnemonic for i in naming_ecx] == ["movl", "shll"]
        assert not spill_stores(out)
        assert guest_reg(run_host(out), "r0") == (7 << 5) + 1 + 2 + 3 + 4

    def test_seven_live_values_spill_and_reload(self):
        block = [mov(Imm(k), v(k)) for k in range(1, 8)]
        block += [add(v(k), v(1)) for k in range(2, 8)]
        block += [mov(v(1), env_mem(codegen.REG_OFFSET["r0"])), EXIT]
        out = codegen.allocate(block)
        assert_allocated(out)
        assert len(spill_stores(out)) == 1
        assert spill_loads(out) == spill_stores(out)
        assert guest_reg(run_host(out), "r0") == sum(range(1, 8))

    def test_dead_def_gets_a_register(self):
        block = [mov(Imm(5), v(1)), add(Imm(1), v(1)), EXIT]
        out = codegen.allocate(block)
        assert_allocated(out)
        assert [i.mnemonic for i in out] == ["movl", "addl", "jmp"]
        assert out[1].operands[1] == out[0].operands[1]

    def test_clean_evicted_value_is_not_stored_again(self):
        # %v0 is evicted dirty (one store), reloaded for its first use,
        # evicted again while clean (no store), and reloaded once more.
        block = [mov(Imm(100), v(0))]
        block += [mov(Imm(k), v(k)) for k in range(1, 7)]
        block += [add(v(k), v(1)) for k in range(2, 7)]
        block.append(add(v(0), v(1)))
        block += [mov(Imm(k), v(k)) for k in range(7, 13)]
        block += [add(v(k), v(1)) for k in range(7, 13)]
        block.append(add(v(0), v(1)))
        block += [mov(v(1), env_mem(codegen.REG_OFFSET["r0"])), EXIT]
        out = codegen.allocate(block)
        assert_allocated(out)
        home = spill_stores(out)[0]
        assert spill_stores(out).count(home) == 1
        assert spill_loads(out).count(home) == 2
        assert guest_reg(run_host(out), "r0") == 2 * 100 + sum(range(1, 13))


# -- the allocator on real translated blocks ----------------------------------

def compiler_target() -> TargetInfo:
    """The MiniC compiler's linear scan, configured for translated
    blocks: the reference the block-local allocator must never lose to."""
    return TargetInfo(
        name="dbt-x86",
        alloc_order=codegen.ALLOC_ORDER,
        callee_saved=(),
        caller_saved=(),
        low8_regs=codegen.LOW8_ORDER,
        defs=x86_isa.defined_registers,
        uses=x86_isa.used_registers,
        is_branch=x86_isa.is_branch,
        branch_condition=x86_isa.branch_condition,
        is_call=x86_isa.is_call,
        spill_load=lambda reg, off: mov(env_mem(SPILL_BASE + off), Reg(reg)),
        spill_store=lambda reg, off: mov(Reg(reg), env_mem(SPILL_BASE + off)),
    )


#: A fixed corpus slice: program 0 of every region of corpus stream 0.
SLICE = [(region, generate_program(config, 0, region, 0))
         for region, config in REGIONS.items()]


@pytest.fixture(scope="module")
def benchsuite_store():
    rules = []
    for name in ("mcf", "gcc"):
        guest, host = build_learning_pair(name)
        rules += learn_rules(guest, host, benchmark=name).rules
    return RuleStore.from_rules(rules)


@pytest.mark.parametrize("mode", ["qemu", "rules"])
@pytest.mark.parametrize("style", ["llvm", "gcc"])
def test_corpus_slice_matches_interpreter_and_never_loses(
        benchsuite_store, monkeypatch, mode, style):
    inputs = []
    allocate = codegen.allocate

    def recording(instrs):
        inputs.append(list(instrs))
        return allocate(instrs)

    monkeypatch.setattr(codegen, "allocate", recording)
    hits = 0
    for region, source in SLICE:
        program = compile_source(source, "arm", 2, style)
        engine = DBTEngine(program, mode,
                           rule_store=benchsuite_store
                           if mode == "rules" else None)
        value = engine.run().return_value & 0xFFFFFFFF
        assert value == interp.run_tac(program.tac) & 0xFFFFFFFF, region
        hits += sum(engine.last_run.hit_rule_lengths.values())
    assert inputs
    assert (hits > 0) == (mode == "rules")
    for instrs in inputs:
        func = MachineFunction("tb", instrs=list(instrs))
        regalloc.allocate(func, compiler_target())
        assert len(allocate(instrs)) <= len(func.instrs)


HOST_CODE_DIGEST = """
import hashlib
from repro.benchsuite.suite import build_learning_pair
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.dbt import codegen
from repro.dbt.engine import DBTEngine
from repro.learning import learn_rules
from repro.learning.store import RuleStore
from repro.minic import compile_source
digest = hashlib.sha256()
allocate = codegen.allocate
def recording(instrs):
    out = allocate(instrs)
    digest.update("\\n".join(map(str, out)).encode())
    return out
codegen.allocate = recording
store = RuleStore.from_rules(
    learn_rules(*build_learning_pair("mcf"), benchmark="mcf").rules)
for region, config in REGIONS.items():
    program = compile_source(generate_program(config, 0, region, 0),
                             "arm", 2, "gcc")
    for mode in ("qemu", "rules"):
        DBTEngine(program, mode, rule_store=store).run()
print(digest.hexdigest())
"""


def test_host_code_is_independent_of_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        digests.add(subprocess.run(
            [sys.executable, "-c", HOST_CODE_DIGEST], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    assert len(digests) == 1
