"""PRISM instruction set.

A small load-store RISC ISA shared by every layer that touches machine
code: instruction selection builds these objects over *virtual*
registers (:class:`VReg`), the register allocator renames them to
physical register numbers (plain ``int``), frame finalization resolves
symbolic :class:`~repro.target.frame.FrameLoc` offsets, object emission
turns branch labels into instruction indices, the linker rebases them,
and the simulator decodes the final form.

Every instruction exposes the small protocol the generic analyses need:

* ``uses()`` / ``defs()`` — operand registers read / written (virtual or
  physical), driving liveness and interference construction;
* ``rename(mapping)`` — substitute register operands in place;
* ``successors()`` — block labels this instruction may branch to (only
  meaningful before object emission, while targets are still labels);
* ``is_call`` — True for ``BL``/``BLR``; call instructions additionally
  *define* their clobber set, which is how the allocator steers values
  live across calls away from registers a callee may destroy.

Register operands are either an ``int`` (physical register number, see
:mod:`repro.target.registers`) or a :class:`VReg`; :data:`Reg` is the
union of the two.
"""

from __future__ import annotations

from typing import Union

from repro.target.registers import register_name


class VReg:
    """A virtual register: identity-hashed, unique per function."""

    __slots__ = ("uid", "hint")

    def __init__(self, uid: int, hint: str = ""):
        self.uid = uid
        self.hint = hint

    def __repr__(self) -> str:
        if self.hint:
            return f"v{self.uid}.{self.hint}"
        return f"v{self.uid}"


Reg = Union[int, VReg]


def _fmt(value) -> str:
    """Format a register operand, an immediate, or a branch target."""
    if isinstance(value, int):
        return register_name(value) if 0 <= value < 32 else str(value)
    return repr(value)


def _imm(value) -> str:
    """Format a value that is *data*, never a register."""
    return repr(value) if not isinstance(value, int) else str(value)


def _sub(value, mapping):
    try:
        return mapping.get(value, value)
    except TypeError:  # pragma: no cover - unhashable operands never occur
        return value


class MInstr:
    """Base class for PRISM instructions."""

    __slots__ = ()

    is_call = False

    #: Every slot of the class, base classes first; set per subclass.
    slot_names: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names: list = []
        for klass in reversed(cls.__mro__):
            for slot in klass.__dict__.get("__slots__", ()):
                if slot not in names:
                    names.append(slot)
        cls.slot_names = tuple(names)

    def __copy__(self):
        """Shallow copy, slot by slot (an unset slot stays unset).

        The linker copies every instruction it relocates; this skips
        the generic ``copy._reconstruct`` path."""
        cls = type(self)
        clone = cls.__new__(cls)
        for slot in cls.slot_names:
            try:
                setattr(clone, slot, getattr(self, slot))
            except AttributeError:
                pass
        return clone

    def uses(self) -> list:
        """Registers read by this instruction."""
        return []

    def defs(self) -> list:
        """Registers written by this instruction."""
        return []

    def rename(self, mapping: dict) -> None:
        """Substitute register operands according to ``mapping``."""

    def successors(self) -> list:
        """Branch-target labels (pre-emission control flow)."""
        return []


class LDI(MInstr):
    """Load immediate: ``rd <- imm``."""

    __slots__ = ("rd", "imm")

    def __init__(self, rd: Reg, imm: int):
        self.rd = rd
        self.imm = imm

    def uses(self) -> list:
        return []

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)

    def __repr__(self) -> str:
        return f"LDI {_fmt(self.rd)}, {self.imm}"


class LDA(MInstr):
    """Load the address of a symbol: ``rd <- &symbol``.

    ``resolved`` is filled by the linker: a code index for function
    symbols, a data address for globals.
    """

    __slots__ = ("rd", "symbol", "is_function", "resolved")

    def __init__(self, rd: Reg, symbol: str, is_function: bool = False):
        self.rd = rd
        self.symbol = symbol
        self.is_function = is_function
        self.resolved: int | None = None

    def uses(self) -> list:
        return []

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)

    def __repr__(self) -> str:
        kind = "code" if self.is_function else "data"
        where = f" @{self.resolved}" if self.resolved is not None else ""
        return f"LDA {_fmt(self.rd)}, {self.symbol}[{kind}]{where}"


class MOV(MInstr):
    """Register copy: ``rd <- rs``."""

    __slots__ = ("rd", "rs")

    def __init__(self, rd: Reg, rs: Reg):
        self.rd = rd
        self.rs = rs

    def uses(self) -> list:
        return [self.rs]

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)
        self.rs = _sub(self.rs, mapping)

    def __repr__(self) -> str:
        return f"MOV {_fmt(self.rd)}, {_fmt(self.rs)}"


class ALU(MInstr):
    """Three-register arithmetic/logic: ``rd <- ra op rb``."""

    __slots__ = ("op", "rd", "ra", "rb")

    def __init__(self, op: str, rd: Reg, ra: Reg, rb: Reg):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb

    def uses(self) -> list:
        return [self.ra, self.rb]

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)
        self.ra = _sub(self.ra, mapping)
        self.rb = _sub(self.rb, mapping)

    def __repr__(self) -> str:
        return (
            f"ALU[{self.op}] {_fmt(self.rd)}, {_fmt(self.ra)}, "
            f"{_fmt(self.rb)}"
        )


class ALUI(MInstr):
    """Register-immediate arithmetic/logic: ``rd <- ra op imm``.

    ``imm`` may be a symbolic :class:`~repro.target.frame.FrameLoc`
    until frame finalization resolves it to a word offset.
    """

    __slots__ = ("op", "rd", "ra", "imm")

    def __init__(self, op: str, rd: Reg, ra: Reg, imm):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.imm = imm

    def uses(self) -> list:
        return [self.ra]

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)
        self.ra = _sub(self.ra, mapping)

    def __repr__(self) -> str:
        return (
            f"ALUI[{self.op}] {_fmt(self.rd)}, {_fmt(self.ra)}, "
            f"{_imm(self.imm)}"
        )


class CMP(MInstr):
    """Comparison producing 0/1: ``rd <- (ra op rb)``."""

    __slots__ = ("op", "rd", "ra", "rb")

    def __init__(self, op: str, rd: Reg, ra: Reg, rb: Reg):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb

    def uses(self) -> list:
        return [self.ra, self.rb]

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)
        self.ra = _sub(self.ra, mapping)
        self.rb = _sub(self.rb, mapping)

    def __repr__(self) -> str:
        return (
            f"CMP[{self.op}] {_fmt(self.rd)}, {_fmt(self.ra)}, "
            f"{_fmt(self.rb)}"
        )


class LDW(MInstr):
    """Load word: ``rd <- memory[base + offset]``.

    ``offset`` may be a symbolic frame location until finalization.
    ``singleton`` statically tags accesses of simple scalar variables
    (including register save/restore traffic) for Table 5 accounting.
    ``save_restore`` further tags prologue/epilogue register
    save/restore traffic specifically, so the simulator can attribute
    linkage overhead per procedure (Tables 4-5).
    """

    __slots__ = ("rd", "base", "offset", "singleton", "save_restore")

    def __init__(self, rd: Reg, base: Reg, offset, singleton: bool = False,
                 save_restore: bool = False):
        self.rd = rd
        self.base = base
        self.offset = offset
        self.singleton = singleton
        self.save_restore = save_restore

    def uses(self) -> list:
        return [self.base]

    def defs(self) -> list:
        return [self.rd]

    def rename(self, mapping: dict) -> None:
        self.rd = _sub(self.rd, mapping)
        self.base = _sub(self.base, mapping)

    def __repr__(self) -> str:
        tag = " !s" if self.singleton else ""
        return (
            f"LDW {_fmt(self.rd)}, {_imm(self.offset)}"
            f"({_fmt(self.base)}){tag}"
        )


class STW(MInstr):
    """Store word: ``memory[base + offset] <- rs``."""

    __slots__ = ("rs", "base", "offset", "singleton", "save_restore")

    def __init__(self, rs: Reg, base: Reg, offset, singleton: bool = False,
                 save_restore: bool = False):
        self.rs = rs
        self.base = base
        self.offset = offset
        self.singleton = singleton
        self.save_restore = save_restore

    def uses(self) -> list:
        return [self.rs, self.base]

    def defs(self) -> list:
        return []

    def rename(self, mapping: dict) -> None:
        self.rs = _sub(self.rs, mapping)
        self.base = _sub(self.base, mapping)

    def __repr__(self) -> str:
        tag = " !s" if self.singleton else ""
        return (
            f"STW {_fmt(self.rs)}, {_imm(self.offset)}"
            f"({_fmt(self.base)}){tag}"
        )


class B(MInstr):
    """Unconditional branch to a label (an instruction index after
    object emission)."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def successors(self) -> list:
        return [self.target] if isinstance(self.target, str) else []

    def __repr__(self) -> str:
        return f"B {self.target}"


class BC(MInstr):
    """Compare-and-branch (PA-RISC ``COMB``): branch to ``target`` when
    ``ra op rb`` holds; otherwise fall through."""

    __slots__ = ("op", "ra", "rb", "target")

    def __init__(self, op: str, ra: Reg, rb: Reg, target):
        self.op = op
        self.ra = ra
        self.rb = rb
        self.target = target

    def uses(self) -> list:
        return [self.ra, self.rb]

    def defs(self) -> list:
        return []

    def rename(self, mapping: dict) -> None:
        self.ra = _sub(self.ra, mapping)
        self.rb = _sub(self.rb, mapping)

    def successors(self) -> list:
        return [self.target] if isinstance(self.target, str) else []

    def __repr__(self) -> str:
        return (
            f"BC[{self.op}] {_fmt(self.ra)}, {_fmt(self.rb)}, "
            f"{self.target}"
        )


class BL(MInstr):
    """Branch-and-link (direct call): ``RP <- pc + 1; pc <- callee``.

    ``arg_regs`` lists the physical argument registers the call site
    loaded; ``clobbers`` is the register set the callee may destroy
    (``CALLER ∪ MSPILL ∪ {RV, RP}`` by directive, or the callee
    subtree's actual usage under caller-saves preallocation).  The
    allocator treats the clobber set as defined by the call; the
    simulator's convention checker verifies everything outside it is
    preserved.  ``resolved`` is the linked entry pc.
    """

    __slots__ = ("callee", "arg_regs", "clobbers", "resolved")

    is_call = True

    def __init__(self, callee: str, arg_regs: list, clobbers: list):
        self.callee = callee
        self.arg_regs = list(arg_regs)
        self.clobbers = list(clobbers)
        self.resolved: int | None = None

    def uses(self) -> list:
        return list(self.arg_regs)

    def defs(self) -> list:
        return list(self.clobbers)

    def __repr__(self) -> str:
        args = ", ".join(_fmt(r) for r in self.arg_regs)
        return f"BL {self.callee}({args})"


class BLR(MInstr):
    """Branch-and-link through a register (indirect call)."""

    __slots__ = ("target", "arg_regs", "clobbers")

    is_call = True

    def __init__(self, target: Reg, arg_regs: list, clobbers: list):
        self.target = target
        self.arg_regs = list(arg_regs)
        self.clobbers = list(clobbers)

    def uses(self) -> list:
        return [self.target] + list(self.arg_regs)

    def defs(self) -> list:
        return list(self.clobbers)

    def rename(self, mapping: dict) -> None:
        self.target = _sub(self.target, mapping)

    def __repr__(self) -> str:
        args = ", ".join(_fmt(r) for r in self.arg_regs)
        return f"BLR {_fmt(self.target)}({args})"


class RET(MInstr):
    """Return: ``pc <- RP``.  ``live_out`` names the registers carrying
    values out of the procedure (RV for non-void returns), keeping them
    live through the epilogue."""

    __slots__ = ("live_out",)

    def __init__(self, live_out=()):
        self.live_out = list(live_out)

    def uses(self) -> list:
        return list(self.live_out)

    def defs(self) -> list:
        return []

    def __repr__(self) -> str:
        regs = ", ".join(_fmt(r) for r in self.live_out)
        return f"RET {regs}".rstrip()


class SYS(MInstr):
    """Runtime service call (``print`` / ``putc``): consumes ``ra``.

    Builtins are simulator syscalls, not procedures — they appear in no
    call graph and clobber no registers (docs/TINYC.md).
    """

    __slots__ = ("kind", "ra")

    def __init__(self, kind: str, ra: Reg):
        self.kind = kind
        self.ra = ra

    def uses(self) -> list:
        return [self.ra]

    def defs(self) -> list:
        return []

    def rename(self, mapping: dict) -> None:
        self.ra = _sub(self.ra, mapping)

    def __repr__(self) -> str:
        return f"SYS[{self.kind}] {_fmt(self.ra)}"


class HALT(MInstr):
    """Stop the machine (the startup stub's final instruction)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "HALT"
