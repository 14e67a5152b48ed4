"""PRISM instruction smoke tests: one construct/inspect/print check per
opcode, plus the operand protocol (uses/defs/rename/successors) the
allocator and liveness engine depend on."""

import copy

from repro.target import isa
from repro.target.registers import RP, RV, SP
from tests.support import (
    instruction_with_unset_slot,
    one_instruction_per_class,
)


def vregs(n):
    return [isa.VReg(i + 1, f"t{i + 1}") for i in range(n)]


def test_ldi():
    v, = vregs(1)
    instr = isa.LDI(v, 7)
    assert instr.defs() == [v] and instr.uses() == []
    instr.rename({v: 9})
    assert instr.rd == 9
    assert repr(instr) == "LDI r9, 7"


def test_lda():
    v, = vregs(1)
    instr = isa.LDA(v, "g", False)
    assert instr.symbol == "g" and not instr.is_function
    assert instr.resolved is None
    assert instr.defs() == [v]
    instr.resolved = 1024
    assert "g" in repr(instr) and "1024" in repr(instr)
    fn = isa.LDA(v, "f", True)
    assert fn.is_function and "code" in repr(fn)


def test_mov():
    a, b = vregs(2)
    instr = isa.MOV(a, b)
    assert instr.uses() == [b] and instr.defs() == [a]
    instr.rename({a: 8, b: 9})
    assert (instr.rd, instr.rs) == (8, 9)
    assert repr(instr) == "MOV r8, r9"


def test_alu():
    d, a, b = vregs(3)
    instr = isa.ALU("+", d, a, b)
    assert instr.uses() == [a, b] and instr.defs() == [d]
    instr.rename({d: 8, a: 9, b: 10})
    assert repr(instr) == "ALU[+] r8, r9, r10"


def test_alui():
    d, a = vregs(2)
    instr = isa.ALUI("-", d, a, 4)
    assert instr.uses() == [a] and instr.defs() == [d]
    assert instr.imm == 4
    instr.rename({d: SP, a: SP})
    assert repr(instr) == "ALUI[-] sp, sp, 4"


def test_cmp():
    d, a, b = vregs(3)
    instr = isa.CMP("<", d, a, b)
    assert instr.uses() == [a, b] and instr.defs() == [d]
    instr.rename({d: 8, a: 9, b: 10})
    assert repr(instr) == "CMP[<] r8, r9, r10"


def test_ldw():
    d, base = vregs(2)
    instr = isa.LDW(d, base, 3, singleton=True)
    assert instr.uses() == [base] and instr.defs() == [d]
    assert instr.singleton
    instr.rename({d: 8, base: SP})
    assert repr(instr) == "LDW r8, 3(sp) !s"
    assert not isa.LDW(d, base, 0).singleton


def test_stw():
    s, base = vregs(2)
    instr = isa.STW(s, base, 2)
    assert instr.uses() == [s, base] and instr.defs() == []
    instr.rename({s: 8, base: SP})
    assert repr(instr) == "STW r8, 2(sp)"


def test_b():
    instr = isa.B("loop")
    assert instr.successors() == ["loop"]
    assert instr.uses() == [] and instr.defs() == []
    assert repr(instr) == "B loop"
    # After object emission targets are indices: no label successors.
    instr.target = 12
    assert instr.successors() == []


def test_bc():
    a, b = vregs(2)
    instr = isa.BC("<=", a, b, "then")
    assert instr.successors() == ["then"]
    assert instr.uses() == [a, b] and instr.defs() == []
    instr.rename({a: 8, b: 9})
    assert repr(instr) == "BC[<=] r8, r9, then"
    instr.target = 3
    assert instr.successors() == []


def test_bl():
    instr = isa.BL("callee", [4, 5], [RV, RP, 4, 5])
    assert instr.is_call
    assert instr.uses() == [4, 5]
    assert set(instr.defs()) == {RV, RP, 4, 5}
    assert instr.resolved is None
    assert repr(instr) == "BL callee(r4, r5)"


def test_blr():
    t, = vregs(1)
    instr = isa.BLR(t, [4], [RV, RP])
    assert instr.is_call
    assert instr.uses() == [t, 4]
    assert instr.defs() == [RV, RP]
    instr.rename({t: 9})
    assert repr(instr) == "BLR r9(r4)"


def test_ret():
    instr = isa.RET([RV])
    assert not instr.is_call
    assert instr.uses() == [RV] and instr.defs() == []
    assert repr(instr) == "RET rv"
    assert repr(isa.RET()) == "RET"


def test_sys():
    r, = vregs(1)
    instr = isa.SYS("print", r)
    assert instr.kind == "print"
    assert instr.uses() == [r] and instr.defs() == []
    instr.rename({r: 4})
    assert repr(instr) == "SYS[print] r4"


def test_halt():
    instr = isa.HALT()
    assert instr.uses() == [] and instr.defs() == []
    assert instr.successors() == []
    assert repr(instr) == "HALT"


def test_only_calls_flagged_as_calls():
    call_classes = {isa.BL, isa.BLR}
    all_classes = [
        isa.ALU, isa.ALUI, isa.B, isa.BC, isa.BL, isa.BLR, isa.CMP,
        isa.HALT, isa.LDA, isa.LDI, isa.LDW, isa.MOV, isa.RET, isa.STW,
        isa.SYS,
    ]
    for cls in all_classes:
        assert cls.is_call == (cls in call_classes)


def test_rename_leaves_unmapped_operands_alone():
    a, b = vregs(2)
    instr = isa.ALU("*", a, b, 8)
    instr.rename({b: 9})
    assert instr.rd is a and instr.ra == 9 and instr.rb == 8


def test_copies_are_independent():
    # Object emission and the linker shallow-copy instructions and then
    # rewrite the copy's branch target or resolved symbol.  Both must
    # leave the original untouched and print identically beforehand.
    instr = isa.BC("==", 8, 9, "exit")
    shallow = copy.copy(instr)
    assert repr(shallow) == repr(instr)
    shallow.target = 5
    assert instr.target == "exit"
    call = isa.BL("f", [4], [RV, RP])
    deep = copy.deepcopy(call)
    deep.resolved = 17
    assert call.resolved is None


def test_vreg_identity_semantics():
    # Two vregs with equal uids are distinct allocator nodes: functions
    # never share vregs, and the allocator keys dicts by identity.
    a1 = isa.VReg(1, "x")
    a2 = isa.VReg(1, "x")
    assert a1 != a2
    assert len({a1, a2}) == 2
    assert repr(a1) == "v1.x"
    assert repr(isa.VReg(2)) == "v2"


def test_slot_names_cover_every_slot():
    for instruction in one_instruction_per_class():
        klass = type(instruction)
        assert set(klass.slot_names) == set(klass.__slots__)
        assert len(klass.slot_names) == len(klass.__slots__)


def test_copy_keeps_every_slot_of_every_class():
    for instruction in one_instruction_per_class():
        clone = copy.copy(instruction)
        assert type(clone) is type(instruction)
        assert clone is not instruction
        for slot in type(instruction).slot_names:
            assert getattr(clone, slot) is getattr(instruction, slot)
        assert repr(clone) == repr(instruction)


def test_copy_leaves_unset_slots_unset():
    instruction = instruction_with_unset_slot()
    clone = copy.copy(instruction)
    assert not hasattr(clone, "resolved")
    assert (clone.rd, clone.symbol, clone.is_function) == (
        3, "table", False
    )
    clone.resolved = 1040
    assert not hasattr(instruction, "resolved")


def test_mutating_a_copy_leaves_the_original_intact():
    for instruction in one_instruction_per_class():
        before = repr(instruction)
        values = {slot: getattr(instruction, slot)
                  for slot in type(instruction).slot_names}
        clone = copy.copy(instruction)
        for slot in values:
            setattr(clone, slot, 99)
        assert repr(instruction) == before
        assert {slot: getattr(instruction, slot)
                for slot in values} == values
