"""Threaded-code simulator backend: decoded instructions compiled to
specialized Python closures.

The reference backend (:meth:`repro.machine.simulator.Simulator._run_reference`)
pays, per dynamic instruction, for tuple indexing, a ~40-way ``if/elif``
dispatch chain, and attribute-based counter updates.  This backend
removes all three:

* the decoded stream is partitioned into **extended basic blocks**
  (leaders are the program entry, function entries, branch/call
  targets, and call-return sites; a block additionally extends through
  the fall-through edge of conditional branches, so straight-line
  regions separated only by forward branches compile into one closure);
* each block is compiled — the first time control reaches it, once
  per executable and accounting configuration — into one specialized
  Python closure with every operand, cost, and stats increment folded
  in as a constant at compile time; registers touched more than once
  are hoisted into Python locals for the duration of the block and
  written back at every exit.  Blocks no run reaches are never
  generated;
* a conditional (or unconditional) branch back to its own block head
  compiles into a real Python ``while`` loop, so tight simulated loops
  run without any per-iteration dispatch, register traffic, or counter
  writes (totals are reconstructed from the iteration count on exit);
* the run loop chains closures directly: each block *returns the next
  block's closure* (threaded code), and the driver is just
  ``block = block()``.  Successors are closure cells shared by every
  block of a run; until its block is bound a cell holds a stub that
  binds it (generating its code on the program's first entry there)
  and back-patches the cell (:class:`_Linkage`), so after the first
  transition every edge is a plain cell load.

Accounting stays **bit-identical** to the reference backend.  Cycle,
instruction, and memory-reference counters are committed per block exit
(the per-instruction order of counter updates is unobservable: results
only escape through :class:`ExecutionStats` on a normal HALT).  The one
place per-block accounting could diverge observably is the cycle
budget: the reference interpreter raises
:class:`~repro.machine.simulator.ExecutionLimitExceeded` *after
charging* the instruction that crosses the limit and *before executing
it*.  Each compiled block (and each compiled loop iteration) therefore
pre-checks whether its worst-case cost could cross the budget and, if
so, hands the remainder of the run to :func:`_reference_tail` — a
verbatim port of the reference interpreter operating on the shared
machine state — so faults and the limit exception land on the
identical instruction boundary with the identical message.  (This
assumes non-negative per-instruction costs, which every
:class:`~repro.machine.simulator.CostModel` satisfies: any partial
path through a block costs no more than the whole block.)

On top of the block structure the compiler runs block-local
optimizations, all semantics-preserving by construction:

* **constant propagation** — a per-block lattice (seeded with the
  architecturally-zero r0) folds immediates through moves, arithmetic
  (with the exact wrap/mask semantics), comparisons, and branch
  conditions; loads and stores whose address is known compile to a
  direct ``memory[addr]`` index with the bounds check resolved at
  compile time (an out-of-range constant address compiles to the
  reference backend's exact fault).  The lattice resets at loop-body
  heads (values do not survive the backedge) and joins diamond arms by
  intersection;
* **one-sided wrap checks** — an add/sub whose second operand's sign
  is known (every immediate, plus lattice-known registers) can wrap in
  only one direction, so the other range check is dropped;
* **dead-store elimination** — a constant store provably overwritten
  before any read (folding leaves these behind, e.g. the defining
  ``LDI`` of a folded address or the return-pointer store of a
  canceled call) is removed by a conservative straight-line scan;
* **lazy slot accounting** — when per-procedure attribution is off,
  straight blocks commit only the cycle counter eagerly (the budget
  pre-check needs it) and bump one per-exit-site counter for the rest;
  load/store/singleton/save-restore totals are reconstructed from the
  exit-site counts once, at HALT or on handoff to the reference tail.

Per-procedure attribution (``track``) and calling-convention checking
(``check``) are compiled in only when requested: the unobserved
configuration costs nothing at run time.

Entering the middle of a block (only possible by returning through a
corrupted return pointer) falls back to lazily compiling a suffix block
for that program counter, so arbitrary control flow keeps the exact
reference semantics.

Generated code objects are cached with the executable
(:data:`_PROGRAM_CACHE`, keyed weakly by executable identity): a later
run of the same executable — ``run_executable`` builds a fresh
:class:`~repro.machine.simulator.Simulator` each call — binds them to
its own state and generates only the blocks no earlier run reached.
Across executables, a small process-wide LRU (:data:`_CODE_CACHE`)
maps generated block source to its code object, so a re-linked copy of
an executable that already ran generates block source but compiles
none of it.
"""

from __future__ import annotations

import builtins
import re
import threading
import weakref
from collections import OrderedDict
from dataclasses import astuple
from functools import partial
from types import CellType, CodeType, FunctionType

from repro.machine.simulator import (
    _ADD,
    _ADDI,
    _AND,
    _ANDI,
    _B,
    _BEQ,
    _BGE,
    _BGT,
    _BL,
    _BLE,
    _BLR,
    _BLT,
    _BNE,
    _CEQ,
    _CGE,
    _CGT,
    _CLE,
    _CLT,
    _CNE,
    _DIV,
    _DIVI,
    _HALT,
    _LDI,
    _LDW,
    _MOV,
    _MUL,
    _MULI,
    _OR,
    _ORI,
    _PRINT,
    _PUTC,
    _REM,
    _REMI,
    _RET,
    _SLL,
    _SLLI,
    _SRA,
    _SRAI,
    _STW,
    _SUB,
    _SUBI,
    _XOR,
    _XORI,
    ConventionViolation,
    ExecutionLimitExceeded,
    ExecutionStats,
    MachineError,
    ProcedureStats,
    _flush_proc,
)
from repro.obs.tracer import current_tracer
from repro.target.registers import NUM_REGISTERS, RP, RV, SP


class _Halted(Exception):
    """Internal control-flow signal: the program executed HALT."""


# Add/sub of two in-range (sign-extended 32-bit) values overflows by at
# most one wrap of 2**32, so a compare-and-adjust replaces the reference
# backend's mask (which allocates a big int for the 2**32-1 constant on
# every execution).  Multiplication can wrap many times and keeps the
# mask.
_WRAP_BIN = {_ADD: "+", _SUB: "-"}
_WRAP_BIN_IMM = {_ADDI: "+", _SUBI: "-"}
_MASK_BIN = {_MUL: "*"}
_MASK_BIN_IMM = {_MULI: "*"}
# Bitwise ops and arithmetic shift right of two in-range (sign-extended
# 32-bit) values are closed over the 32-bit range, so the reference
# backend's mask + sign-fix is the identity and is elided here.
_CLOSED_BIN = {_AND: "&", _OR: "|", _XOR: "^"}
_CLOSED_BIN_IMM = {_ANDI: "&", _ORI: "|", _XORI: "^"}
_CMP_PY = {_CEQ: "==", _CNE: "!=", _CLT: "<", _CLE: "<=",
           _CGT: ">", _CGE: ">="}
_BC_PY = {_BEQ: "==", _BNE: "!=", _BLT: "<", _BLE: "<=",
          _BGT: ">", _BGE: ">="}
_CMP_FOLD = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}

# Stop extending a block through conditional fall-throughs once it has
# this many instructions (bounds generated-code size; correctness does
# not depend on the value).
_MAX_BLOCK = 64

# Hoist a register into a Python local when a straight-line block
# touches it at least this many times (loop bodies always hoist).
_HOIST_MIN_USES = 2

# Longest taken arm (in instructions) an if-diamond will inline.
_MAX_ARM = 24


def _find_leaders(decoded: list, executable) -> set:
    """Program counters at which a basic block may begin."""
    n = len(decoded)
    leaders = {executable.entry_pc}
    leaders.update(executable.function_entries.values())
    for index, op in enumerate(decoded):
        code = op[0]
        if code == _B:
            leaders.add(op[2])
        elif _BEQ <= code <= _BGE:
            leaders.add(op[4])
            leaders.add(index + 1)
        elif code == _BL:
            leaders.add(op[2])
            leaders.add(index + 1)
        elif code == _BLR:
            # Indirect targets are function entries (already leaders);
            # the return site follows the call.
            leaders.add(index + 1)
    return {pc for pc in leaders if 0 <= pc < n}


def _preserved_registers(clobbers, volatile) -> tuple:
    """The registers a convention-checked call must leave untouched."""
    return tuple(
        i for i in range(NUM_REGISTERS)
        if i != RP and i not in clobbers and i not in volatile
    )


def _op_counts(op) -> list:
    """Counter deltas charged by one instruction:
    [cycles, instructions, loads, stores, singleton_loads,
    singleton_stores, save_restore]."""
    counts = [op[1], 1, 0, 0, 0, 0, 0]
    code = op[0]
    if code == _LDW:
        counts[2] = 1
        if op[5]:
            counts[4] = 1
        if op[6]:
            counts[6] = 1
    elif code == _STW:
        counts[3] = 1
        if op[5]:
            counts[5] = 1
        if op[6]:
            counts[6] = 1
    return counts


def _add_counts(total: list, delta: list) -> None:
    for slot in range(7):
        total[slot] += delta[slot]


_CONST_STORE = re.compile(r"^(\s*)(r\d+) = -?\d+$")
_CONTROL_LINE = re.compile(r"^\s*(return|raise|break|continue)\b")


def _peephole(lines: list) -> list:
    """Drop constant stores to hoisted locals that are provably
    overwritten before any read.  (Constant folding leaves the
    defining store of ``LDI rX / LDW rX, [rX]`` pairs and of canceled
    calls' return-pointer updates dead.)

    The scan is linear and conservative: a pending store survives only
    across statements of the same suite at the same indentation —
    any control transfer (a ``return``/``raise``/``continue``/
    ``break``, a header line ending in ``:``, or an indentation
    change) forgets it, so a store is only removed when the straight
    line between it and the overwrite can neither read the local nor
    branch away.  Locals are only readable by name, so a textual
    occurrence check captures every read (including writebacks)."""
    drop: set = set()
    pending: dict = {}  # dest -> (line_index, indent)
    for i, line in enumerate(lines):
        if line.rstrip().endswith(":") or _CONTROL_LINE.match(line):
            pending.clear()
            continue
        if not pending:
            m = _CONST_STORE.match(line)
            if m:
                pending[m.group(2)] = (i, m.group(1))
            continue
        indent = line[: len(line) - len(line.lstrip())]
        for dest, (j, ind) in list(pending.items()):
            if ind != indent:
                del pending[dest]
                continue
            head = f"{indent}{dest} = "
            if line.startswith(head):
                if not re.search(
                    rf"(?<!\w){re.escape(dest)}(?!\w)", line[len(head):]
                ):
                    drop.add(j)
                del pending[dest]
            elif re.search(rf"(?<!\w){re.escape(dest)}(?!\w)", line):
                del pending[dest]
        m = _CONST_STORE.match(line)
        if m:
            pending[m.group(2)] = (i, m.group(1))
    return [line for i, line in enumerate(lines) if i not in drop]


class _BlockCompiler:
    """Emits the Python source of one extended-basic-block closure."""

    def __init__(self, program: "_CompiledProgram"):
        self.program = program
        self.hoisted: set = set()
        self.written: set = set()
        self.iter_totals: list = [0] * 7
        self.open_frames: list = []
        self.loop_edge_sites: list = []
        self.loop_batched_sites: set = set()
        self.entry_loads: set = set()
        self.written_so_far: set = set()
        self.diamonds: dict = {}
        self.skip_slots: tuple = ()
        self.budget_extra: int = 0
        # Leaders the current block transfers to directly.
        self.targets: set = set()
        # Block-local constant lattice: register -> known int value at
        # the current emission point.  r0 is architecturally zero (the
        # reference backend never writes it).
        self.const: dict = {0: 0}

    # ------------------------------------------------------------------
    # scanning

    def _scan(self, start: int):
        """Collect the instructions of the extended block at ``start``.

        Returns ``(items, loop, inline)`` where ``items`` is a list of
        ``(pc, op)`` pairs, ``loop`` says the final item branches back
        to ``start`` (compile the block as a ``while`` loop; the
        backedge is conditional iff that final op is a BC), and
        ``inline`` maps an item index to ``("call", frame)`` for a BL
        whose callee is scanned straight through, or ``("ret", frame)``
        for the matching RET.  A ``frame`` records the callee name, the
        static return site, whether the scan closed the call (reached
        its RET), and whether the region between call and return is
        *RP-clean* — no instruction in it writes the return-pointer
        register.  A closed clean call provably returns to its static
        return site, so codegen can drop the return-address guard and
        cancel the call stack push against the return's pop entirely.

        Direct calls are threaded through only when per-procedure
        attribution is off: attribution flushes counters at every call
        boundary, which would force a commit mid-block and defeat the
        batching.
        """
        program = self.program
        decoded = program.decoded
        n = program.n
        inline_calls = not program.track
        items: list = []
        inline: dict = {}
        open_frames: list = []
        seen: set = set()
        pc = start
        while True:
            seen.add(pc)
            op = decoded[pc]
            code = op[0]
            items.append((pc, op))
            if code == _BL:
                # BL writes RP: every already-open call region is dirty.
                for frame in open_frames:
                    frame["clean"] = False
                if (inline_calls and len(items) < _MAX_BLOCK
                        and 0 <= op[2] < n):
                    # Re-entering already-scanned pcs just duplicates
                    # them in ``items`` (each scan step appends an item,
                    # so the block cap still bounds the scan — including
                    # through direct recursion).
                    frame = {"name": op[3], "ret_pc": pc + 1,
                             "clean": True, "closed": False}
                    inline[len(items) - 1] = ("call", frame)
                    open_frames.append(frame)
                    pc = op[2]
                    continue
                return items, False, inline
            if code == _RET:
                if open_frames and len(items) < _MAX_BLOCK:
                    frame = open_frames[-1]
                    ret_pc = frame["ret_pc"]
                    if 0 <= ret_pc < n:
                        open_frames.pop()
                        frame["closed"] = True
                        inline[len(items) - 1] = ("ret", frame)
                        pc = ret_pc
                        continue
                return items, False, inline
            if code == _BLR:
                for frame in open_frames:
                    frame["clean"] = False
                return items, False, inline
            if code == _HALT:
                return items, False, inline
            if open_frames and op[2] == RP and code not in (_B, _STW):
                # Every other opcode's op[2] is a destination register
                # (compare/branch codes were handled above or below and
                # PRINT/PUTC only read): a write to RP dirties every
                # open call region.
                for frame in open_frames:
                    frame["clean"] = False
            if code == _B:
                if op[2] == start:
                    return items, True, inline
                if (op[2] in seen or len(items) >= _MAX_BLOCK
                        or not 0 <= op[2] < n):
                    return items, False, inline
                # Jump-threading: the branch is free at run time — keep
                # emitting straight through its target.
                pc = op[2]
                continue
            if _BEQ <= code <= _BGE:
                if op[4] == start:
                    return items, True, inline
                if len(items) >= _MAX_BLOCK or pc + 1 >= n:
                    # Cap (or end of code): emit both edges of this BC
                    # and stop.
                    return items, False, inline
                pc += 1
                continue
            pc += 1
            if pc >= n or pc in seen or len(items) >= _MAX_BLOCK:
                # Leaders do NOT stop the scan: a block falling through
                # into another block's head duplicates its tail (the
                # head keeps its own closure for incoming jumps), which
                # trades code size for one less dispatch per boundary.
                return items, False, inline

    # ------------------------------------------------------------------
    # if-diamonds

    def _find_diamonds(self, items: list, inline: dict, loop: bool,
                       start: int) -> dict:
        """Map BC item index -> ``(join index, taken-arm ops)`` for
        conditional branches whose taken edge rejoins the scan path
        later in this block after at most ``_MAX_ARM`` straight-line
        instructions, and whose skipped fall-path region is pure
        straight-line code (no control transfers, no inline call/ret
        markers).  Such a branch compiles to a structured ``if``/
        ``else`` instead of a block exit: whichever arm runs, the
        difference against the linearly-charged fall path goes into
        ``sk`` compensation counters that every later commit
        subtracts.  Unconditional jumps inside the taken arm are
        threaded through (charged, no code), so plain if/else
        diamonds — where the else arm ends in a jump to the join —
        qualify."""
        diamonds: dict = {}
        decoded = self.program.decoded
        n = self.program.n
        pcs = [pc for pc, _ in items]
        for i in range(len(items) - 1):
            op = items[i][1]
            if not _BEQ <= op[0] <= _BGE:
                continue
            target = op[4]
            if loop and target == start:
                # A second backedge: keep it a real exit so the
                # iteration counter stays well-defined.
                continue
            # First later occurrence of each pc on the fall path.
            later: dict = {}
            for k in range(len(items) - 1, i, -1):
                later[pcs[k]] = k
            arm: list = []
            join = None
            pc = target
            for _ in range(_MAX_ARM):
                if pc in later:
                    join = later[pc]
                    break
                if not 0 <= pc < n:
                    break
                aop = decoded[pc]
                acode = aop[0]
                if acode == _B:
                    arm.append(aop)
                    pc = aop[2]
                    continue
                if (acode in (_BL, _BLR, _RET, _HALT)
                        or _BEQ <= acode <= _BGE):
                    break
                arm.append(aop)
                pc += 1
            if join is None:
                continue
            pure = True
            for k in range(i + 1, join):
                kcode = items[k][1][0]
                if (kcode in (_B, _BL, _BLR, _RET, _HALT)
                        or _BEQ <= kcode <= _BGE or k in inline):
                    pure = False
                    break
            if pure:
                diamonds[i] = (join, arm)
        return diamonds

    # ------------------------------------------------------------------
    # register analysis

    def _analyze(self, items: list, loop: bool,
                 skip_indices: frozenset = frozenset(),
                 diamonds: dict | None = None) -> None:
        """Choose the registers to hoist into Python locals.

        Straight-line blocks hoist registers touched at least twice
        (break-even: one subscript at entry/exit versus one per use);
        loop blocks hoist every register they touch, since the body
        repeats.  ``r0`` is never written (codegen skips writes to the
        hardwired zero register), so it never needs writing back.

        Straight blocks additionally skip the entry load for hoisted
        registers whose first access is a write: straight-line order
        guarantees every later read is dominated by that write, and
        exits before it never write the register back (``_writeback``
        covers only registers written so far).  Loop bodies repeat, so
        they keep full entry loads and writebacks.

        ``skip_indices`` marks items inside an if-diamond's skipped
        fall-path region and ``diamonds`` supplies each diamond's
        taken-arm instructions (walked in program position, right
        after their branch): a write on either conditional path does
        not dominate later reads, so it classifies as read-first (the
        entry load stays).
        """
        reads: dict = {}
        writes: dict = {}
        first_is_read: dict = {}
        guarded = False

        def read(i):
            reads[i] = reads.get(i, 0) + 1
            if i not in first_is_read:
                first_is_read[i] = True

        def write(i):
            if i:
                writes[i] = writes.get(i, 0) + 1
                if i not in first_is_read:
                    first_is_read[i] = guarded

        sequence = []
        for index, (_pc, op) in enumerate(items):
            sequence.append((index in skip_indices, op))
            if diamonds and index in diamonds:
                sequence.extend((True, aop) for aop in diamonds[index][1])
        for guarded, op in sequence:
            code = op[0]
            if code == _LDW:
                read(op[3])
                write(op[2])
            elif code == _STW:
                read(op[3])
                read(op[2])
            elif code == _LDI:
                write(op[2])
            elif code == _MOV:
                read(op[3])
                write(op[2])
            elif (code in (_ADD, _SUB, _MUL, _DIV, _REM, _AND, _OR,
                           _XOR, _SLL, _SRA)
                  or _CEQ <= code <= _CGE):
                read(op[3])
                read(op[4])
                write(op[2])
            elif code in (_ADDI, _SUBI, _MULI, _DIVI, _REMI, _ANDI,
                          _ORI, _XORI, _SLLI, _SRAI):
                read(op[3])
                write(op[2])
            elif code in (_PRINT, _PUTC):
                read(op[2])
            elif _BEQ <= code <= _BGE:
                read(op[2])
                read(op[3])
            elif code == _BLR:
                read(op[2])
                write(RP)
            elif code == _BL:
                write(RP)
            elif code == _RET:
                read(RP)
            # _B, _HALT: no register operands.

        threshold = 1 if loop else _HOIST_MIN_USES
        self.hoisted = {
            i for i in set(reads) | set(writes)
            if reads.get(i, 0) + writes.get(i, 0) >= threshold
        }
        self.written = {i for i in self.hoisted if writes.get(i, 0)}
        if loop:
            self.entry_loads = set(self.hoisted)
        else:
            self.entry_loads = {
                i for i in self.hoisted if first_is_read.get(i, False)
            }

    def reg(self, i: int) -> str:
        return f"r{i}" if i in self.hoisted else f"regs[{i}]"

    @staticmethod
    def _lit(v: int) -> str:
        return str(v) if v >= 0 else f"({v})"

    def val(self, i: int) -> str:
        """Read expression for register ``i``: its literal value when
        the constant lattice knows it, its storage location otherwise."""
        v = self.const.get(i)
        return self.reg(i) if v is None else self._lit(v)

    def _writeback(self) -> list:
        return [f"regs[{i}] = r{i}" for i in sorted(self.written_so_far)]

    # ------------------------------------------------------------------
    # counter commits

    def _commit(self, prefix: list, loop: bool) -> list:
        """Lines that fold the executed path's counter deltas into
        ``ctr``.  In loop form, ``c0`` holds the cycle counter at loop
        entry and ``it`` the completed-iteration count; ``prefix`` is
        the partial path through the current iteration.  Slots with
        if-diamond compensation subtract the (signed) ``sk`` counter —
        the linear prefix charges the fall-path arm, and taken arms
        adjust ``sk`` by the per-slot difference."""
        out = []
        first = 2 if self.program.uniform else 1

        def expr(slot, per_iter):
            terms = []
            if loop and per_iter:
                terms.append(f"it * {per_iter}")
            if prefix[slot]:
                terms.append(str(prefix[slot]))
            joined = " + ".join(terms)
            if slot in self.skip_slots:
                joined = f"{joined} - sk{slot}" if joined else f"-sk{slot}"
            return joined

        if loop:
            cycles = expr(0, self.iter_totals[0])
            out.append(f"ctr[0] = c0 + {cycles}" if cycles
                       else "ctr[0] = c0")
            for slot in range(first, 7):
                value = expr(slot, self.iter_totals[slot])
                if value:
                    out.append(f"ctr[{slot}] += {value}")
        elif self.program.track:
            out.append(f"ctr[0] += {expr(0, 0) or 0}")
            for slot in range(first, 7):
                value = expr(slot, 0)
                if value:
                    out.append(f"ctr[{slot}] += {value}")
        else:
            # Lazy: one execution-count bump covers slots 1..6 (the
            # static per-exit totals are folded in at reconstruction;
            # diamond arms correct ``ctr`` directly, so no sk counters
            # exist for these slots).
            out.append(f"ctr[0] += {expr(0, 0) or 0}")
            totals = tuple(
                prefix[slot] if slot >= first else 0
                for slot in range(1, 7)
            )
            if any(totals):
                out.append(f"ec[{self.program.exit_site(totals)}] += 1")
        return out

    def _canceled(self, frame: dict) -> bool:
        """A closed inlined call's stack push cancels against its
        return's pop, so neither is emitted; escapes in between
        materialize the pending entries instead.  An RP-clean region
        additionally drops the return-address guard.  (Convention
        checking keeps the physical frames it snapshots registers
        into, so nothing is canceled there.)"""
        return frame["closed"] and not self.program.check

    def _loop_edge_lines(self, exit_idx: int) -> list:
        """Batched call-edge commits for a loop exit emitted after item
        ``exit_idx``: sites before it also ran in the current partial
        iteration."""
        lines = []
        pending = []
        for key, idx in self.loop_edge_sites:
            if idx < exit_idx:
                lines.append(f"call_edges[{key}] += it + 1")
            else:
                pending.append(key)
        if pending:
            # Guarded: ``Counter[k] += 0`` would materialize a zero
            # entry the reference backend never creates.
            lines.append("if it:")
            for key in pending:
                lines.append(f"    call_edges[{key}] += it")
        return lines

    def _exit_lines(self, prefix: list, loop: bool, exit_idx: int) -> list:
        """Everything a mid-block escape must flush: counters, batched
        loop call edges, deferred call-stack entries, hoisted
        registers."""
        lines = self._commit(prefix, loop)
        if loop:
            lines += self._loop_edge_lines(exit_idx)
        names = tuple(
            f["name"] for f in self.open_frames if self._canceled(f)
        )
        if names:
            lines.append(f"call_stack.extend({names!r})")
        lines += self._writeback()
        return lines

    # ------------------------------------------------------------------
    # control-transfer targets

    def _target(self, pc: int) -> str:
        if pc in self.program.leaders:
            self.targets.add(pc)
            return f"_b{pc}"
        return f"goto({pc})"

    # ------------------------------------------------------------------
    # per-instruction bodies (non-control instructions)

    def _signfix(self, body: list, expr: str, rd: int) -> None:
        body.append(f"v = ({expr}) & 4294967295")
        body.append("if v > 2147483647:")
        body.append("    v -= 4294967296")
        if rd:
            body.append(f"{self.reg(rd)} = v")

    def _signfix_wrap(
        self, body: list, expr: str, rd: int, direction: str = "both"
    ) -> None:
        """Sign fix for a result at most one wrap out of range.

        ``direction`` narrows the check when the sign of one operand is
        known: an add of a positive constant can only overflow, of a
        negative one only underflow, and adding zero needs no check.
        """
        dest = self.reg(rd) if rd in self.hoisted else "v"
        body.append(f"{dest} = {expr}")
        if direction in ("both", "over"):
            body.append(f"if {dest} > 2147483647:")
            body.append(f"    {dest} -= 4294967296")
        if direction == "both":
            body.append(f"elif {dest} < -2147483648:")
            body.append(f"    {dest} += 4294967296")
        elif direction == "under":
            body.append(f"if {dest} < -2147483648:")
            body.append(f"    {dest} += 4294967296")
        if rd not in self.hoisted:
            body.append(f"{self.reg(rd)} = v")

    def _instr_lines(self, op) -> list:
        program = self.program
        code = op[0]
        rd = op[2]
        if (code not in (_STW, _PRINT, _PUTC) and rd
                and rd in self.hoisted):
            # Every remaining opcode writes op[2]; later exits must
            # write the hoisted local back.
            self.written_so_far.add(rd)
        const = self.const
        body: list = []
        if code == _LDW:
            known = const.get(op[3])
            if rd:
                const.pop(rd, None)
            if known is not None:
                # Constant base: the bounds check resolves at compile
                # time (the static raise keeps the fault at the same
                # execution point as the reference check).
                address = known + op[4]
                if not 0 <= address < program.memory_words:
                    body.append(
                        "raise MachineError("
                        f"'load from bad address {address}')"
                    )
                elif rd:
                    body.append(f"{self.reg(rd)} = memory[{address}]")
                return body
            base_expr = self.reg(op[3])
            addr = f"{base_expr} + {op[4]}" if op[4] else base_expr
            body.append(f"a = {addr}")
            body.append(f"if not 0 <= a < {program.memory_words}:")
            body.append(
                "    raise MachineError('load from bad address %d' % a)"
            )
            if rd:
                body.append(f"{self.reg(rd)} = memory[a]")
        elif code == _STW:
            known = const.get(op[3])
            if known is not None:
                address = known + op[4]
                if not program.base <= address < program.memory_words:
                    body.append(
                        "raise MachineError("
                        f"'store to bad address {address}')"
                    )
                else:
                    body.append(f"memory[{address}] = {self.val(rd)}")
                return body
            base_expr = self.reg(op[3])
            addr = f"{base_expr} + {op[4]}" if op[4] else base_expr
            body.append(f"a = {addr}")
            body.append(
                f"if not {program.base} <= a < {program.memory_words}:"
            )
            body.append(
                "    raise MachineError('store to bad address %d' % a)"
            )
            body.append(f"memory[a] = {self.val(rd)}")
        elif code == _LDI:
            if rd:
                const[rd] = op[3]
                body.append(f"{self.reg(rd)} = {op[3]}")
        elif code == _MOV:
            if rd:
                known = const.get(op[3])
                if known is not None:
                    const[rd] = known
                    body.append(f"{self.reg(rd)} = {self._lit(known)}")
                else:
                    const.pop(rd, None)
                    body.append(f"{self.reg(rd)} = {self.reg(op[3])}")
        elif code in _WRAP_BIN or code in _WRAP_BIN_IMM:
            if rd:
                imm = code in _WRAP_BIN_IMM
                sym = _WRAP_BIN_IMM[code] if imm else _WRAP_BIN[code]
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    v = a + b if sym == "+" else a - b
                    if v > 2147483647:
                        v -= 4294967296
                    elif v < -2147483648:
                        v += 4294967296
                    const[rd] = v
                    body.append(f"{self.reg(rd)} = {self._lit(v)}")
                else:
                    const.pop(rd, None)
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    if sym == "+":
                        known = a if a is not None else b
                    else:
                        known = -b if b is not None else None
                    if known is None:
                        direction = "both"
                    elif known > 0:
                        direction = "over"
                    elif known < 0:
                        direction = "under"
                    else:
                        direction = "none"
                    self._signfix_wrap(
                        body, f"{self.val(op[3])} {sym} {rhs}", rd,
                        direction,
                    )
        elif code in _MASK_BIN or code in _MASK_BIN_IMM:
            if rd:
                imm = code in _MASK_BIN_IMM
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    v = (a * b) & 4294967295
                    if v > 2147483647:
                        v -= 4294967296
                    const[rd] = v
                    body.append(f"{self.reg(rd)} = {self._lit(v)}")
                else:
                    const.pop(rd, None)
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    self._signfix(body, f"{self.val(op[3])} * {rhs}", rd)
        elif code in _CLOSED_BIN or code in _CLOSED_BIN_IMM:
            if rd:
                imm = code in _CLOSED_BIN_IMM
                sym = _CLOSED_BIN_IMM[code] if imm else _CLOSED_BIN[code]
                a = const.get(op[3])
                b = op[4] if imm else const.get(op[4])
                if a is not None and b is not None:
                    if sym == "&":
                        v = a & b
                    elif sym == "|":
                        v = a | b
                    else:
                        v = a ^ b
                    const[rd] = v
                    body.append(f"{self.reg(rd)} = {self._lit(v)}")
                else:
                    const.pop(rd, None)
                    rhs = f"({op[4]})" if imm else self.val(op[4])
                    body.append(
                        f"{self.reg(rd)} = {self.val(op[3])} {sym} {rhs}"
                    )
        elif code in (_SLL, _SLLI):
            if rd:
                a = const.get(op[3])
                b = op[4] if code == _SLLI else const.get(op[4])
                if a is not None and b is not None:
                    v = (a << (b & 31)) & 4294967295
                    if v > 2147483647:
                        v -= 4294967296
                    const[rd] = v
                    body.append(f"{self.reg(rd)} = {self._lit(v)}")
                else:
                    const.pop(rd, None)
                    shift = (f"{op[4] & 31}" if code == _SLLI
                             else f"({self.val(op[4])} & 31)")
                    self._signfix(
                        body, f"{self.val(op[3])} << {shift}", rd
                    )
        elif code in (_SRA, _SRAI):
            if rd:
                a = const.get(op[3])
                b = op[4] if code == _SRAI else const.get(op[4])
                if a is not None and b is not None:
                    const[rd] = a >> (b & 31)
                    body.append(
                        f"{self.reg(rd)} = {self._lit(const[rd])}"
                    )
                else:
                    const.pop(rd, None)
                    shift = (f"{op[4] & 31}" if code == _SRAI
                             else f"({self.val(op[4])} & 31)")
                    body.append(
                        f"{self.reg(rd)} = {self.val(op[3])} >> {shift}"
                    )
        elif code in (_DIV, _REM):
            if rd:
                const.pop(rd, None)
            self._emit_divrem(body, op, code == _REM)
        elif code in (_DIVI, _REMI):
            if rd:
                const.pop(rd, None)
            self._emit_divrem_imm(body, op, code == _REMI)
        elif code in _CMP_PY:
            if rd:
                a = const.get(op[3])
                b = const.get(op[4])
                sym = _CMP_PY[code]
                if a is not None and b is not None:
                    const[rd] = 1 if _CMP_FOLD[sym](a, b) else 0
                    body.append(f"{self.reg(rd)} = {const[rd]}")
                else:
                    const.pop(rd, None)
                    body.append(
                        f"{self.reg(rd)} = 1 if "
                        f"{self.val(op[3])} {sym} {self.val(op[4])} "
                        f"else 0"
                    )
        elif code == _PRINT:
            known = const.get(op[2])
            if known is not None:
                body.append(f"output.append({str(known)!r})")
            else:
                body.append(f"output.append(str({self.reg(op[2])}))")
            body.append("output.append('\\n')")
        elif code == _PUTC:
            known = const.get(op[2])
            if known is not None:
                body.append(f"output.append({chr(known & 255)!r})")
            else:
                body.append(f"output.append(chr({self.reg(op[2])} & 255))")
        else:  # pragma: no cover - control ops handled by the walker
            raise MachineError(f"cannot compile opcode {code}")
        return body

    def _emit_divrem(self, body: list, op, is_rem: bool) -> None:
        fault = "remainder by zero" if is_rem else "division by zero"
        if not op[2]:
            body.append(f"if {self.val(op[4])} == 0:")
            body.append(f"    raise MachineError('{fault}')")
            return
        body.append(f"a = {self.val(op[3])}")
        body.append(f"b = {self.val(op[4])}")
        body.append("if b == 0:")
        body.append(f"    raise MachineError('{fault}')")
        if is_rem:
            body.append("q = abs(a) // abs(b)")
            body.append("if (a < 0) != (b < 0):")
            body.append("    q = -q")
            self._signfix(body, "a - q * b", op[2])
        else:
            body.append("v = abs(a) // abs(b)")
            body.append("if (a < 0) != (b < 0):")
            body.append("    v = -v")
            self._signfix(body, "v", op[2])

    def _emit_divrem_imm(self, body: list, op, is_rem: bool) -> None:
        imm = op[4]
        fault = "remainder by zero" if is_rem else "division by zero"
        if imm == 0:
            body.append(f"raise MachineError('{fault}')")
            return
        if not op[2]:
            return
        negate = "if a < 0:" if imm > 0 else "if a >= 0:"
        body.append(f"a = {self.val(op[3])}")
        if is_rem:
            body.append(f"q = abs(a) // {abs(imm)}")
            body.append(negate)
            body.append("    q = -q")
            self._signfix(body, f"a - q * ({imm})", op[2])
        else:
            body.append(f"v = abs(a) // {abs(imm)}")
            body.append(negate)
            body.append("    v = -v")
            self._signfix(body, "v", op[2])

    # ------------------------------------------------------------------
    # terminators

    def _emit_call(self, out: list, prefix: list, loop: bool,
                   return_pc: int, callee: str, clobbers,
                   target: str) -> None:
        """Call sequence shared by BL (constant callee) and BLR
        (``callee``/``target`` are expressions over run state); order
        matches the reference backend exactly: counters committed
        before the per-procedure flush, registers written back before
        the convention frame snapshots them."""
        out.extend(self._commit(prefix, loop))
        if RP in self.hoisted:
            out.append(f"r{RP} = {return_pc}")
            self.written_so_far.add(RP)
        out.extend(self._writeback())
        if RP not in self.hoisted:
            out.append(f"regs[{RP}] = {return_pc}")
        out.append(f"call_edges[(call_stack[-1], {callee})] += 1")
        if self.program.track:
            out.append("flush(call_stack[-1])")
        out.append(f"call_stack.append({callee})")
        if self.program.check:
            preserved = _preserved_registers(clobbers, self.program.volatile)
            out.append(
                f"frames.append(({return_pc}, {callee}, {preserved!r}, "
                f"[regs[i] for i in {preserved!r}]))"
            )
        out.append(f"return {target}")

    def _emit_terminator(self, out: list, pc: int, op, prefix: list,
                         loop: bool) -> None:
        """The last item of a non-backedge block: a control transfer,
        HALT, a both-edges BC (cap stop), or a plain fall-through."""
        code = op[0]
        if code == _B:
            out.extend(self._commit(prefix, loop))
            out.extend(self._writeback())
            out.append(f"return {self._target(op[2])}")
        elif _BEQ <= code <= _BGE:
            exit_lines = self._commit(prefix, loop) + self._writeback()
            out.append(
                f"if {self.val(op[2])} {_BC_PY[code]} {self.val(op[3])}:"
            )
            out.extend("    " + line for line in exit_lines)
            out.append(f"    return {self._target(op[4])}")
            out.extend(exit_lines)
            out.append(f"return {self._target(pc + 1)}")
        elif code == _BL:
            self._emit_call(out, prefix, loop, return_pc=pc + 1,
                            callee=repr(op[3]), clobbers=op[4],
                            target=self._target(op[2]))
        elif code == _BLR:
            out.append(f"t = {self.val(op[2])}")
            out.append("name = entry_names.get(t)")
            out.append("if name is None:")
            out.append(
                "    raise MachineError("
                "'indirect call to non-function address %d' % t)"
            )
            # Indirect targets are function entries (in range); the
            # first call to one binds its block.
            self._emit_call(out, prefix, loop, return_pc=pc + 1,
                            callee="name", clobbers=op[3],
                            target="dispatch[t] or goto(t)")
        elif code == _RET:
            out.extend(self._commit(prefix, loop))
            out.extend(self._writeback())
            if self.program.track:
                out.append("flush(call_stack[-1])")
            out.append("if len(call_stack) > 1:")
            out.append("    call_stack.pop()")
            out.append(f"p = {self.val(RP)}")
            if self.program.check:
                out.append("ret_check(p)")
            out.append(f"nb = dispatch[p] if 0 <= p < {self.program.n} "
                       f"else None")
            out.append("if nb is None:")
            out.append("    return goto(p)")
            out.append("return nb")
        elif code == _HALT:
            out.extend(self._commit(prefix, loop))
            out.extend(self._writeback())
            out.append("raise Halted")
        else:
            # Plain fall-through: the next pc is a leader (or past the
            # end of the code, which goto faults on exactly like the
            # reference backend's bounds check).
            out.extend(self._instr_lines(op))
            out.extend(self._commit(prefix, loop))
            out.extend(self._writeback())
            out.append(f"return {self._target(pc + 1)}")

    # ------------------------------------------------------------------
    # block emission

    def _emit_inline_call(self, out: list, pc: int, op, frame: dict,
                          loop: bool, index: int) -> None:
        """A BL whose callee continues inline: only the observable
        bookkeeping is emitted — control never leaves the closure.
        Deferred (closed RP-clean) calls skip the stack push — it
        cancels against the matching return's pop — and in loops their
        call-edge increments are batched across iterations."""
        callee = repr(frame["name"])
        if RP in self.hoisted:
            out.append(f"r{RP} = {pc + 1}")
            self.written_so_far.add(RP)
        else:
            out.append(f"regs[{RP}] = {pc + 1}")
        self.const[RP] = pc + 1
        if self._canceled(frame):
            if loop and index in self.loop_batched_sites:
                # Counted once per loop exit via _loop_edge_lines.
                pass
            elif self.open_frames:
                # The logical caller is the innermost open inline frame
                # — a compile-time constant, letting the key tuple fold.
                # (Canceled open frames are not on the physical stack,
                # so call_stack[-1] would be wrong here.)
                caller = repr(self.open_frames[-1]["name"])
                out.append(f"call_edges[({caller}, {callee})] += 1")
            else:
                # No open frame: the physical stack top is the logical
                # caller.
                out.append(f"call_edges[(call_stack[-1], {callee})] += 1")
        else:
            out.append(f"call_edges[(call_stack[-1], {callee})] += 1")
            out.append(f"call_stack.append({callee})")
            if self.program.check:
                out.extend(self._writeback())
                preserved = _preserved_registers(
                    op[4], self.program.volatile
                )
                out.append(
                    f"frames.append(({pc + 1}, {callee}, {preserved!r}, "
                    f"[regs[i] for i in {preserved!r}]))"
                )
        self.open_frames.append(frame)

    def _emit_inline_ret(self, out: list, frame: dict, prefix: list,
                         loop: bool, exit_idx: int) -> None:
        """A RET inside an inlined call: execution continues at the
        statically known return site unless the program returns
        somewhere else (corrupted return pointer), in which case the
        block is left through the generic dispatch path.  For an
        RP-clean canceled call the return site is provably correct, so
        nothing is emitted at all; a dirty canceled call keeps only the
        guard (its push/pop pair is still discharged statically)."""
        self.open_frames.pop()
        if self._canceled(frame):
            if frame["clean"]:
                return
            ret_pc = frame["ret_pc"]
            if self.const.get(RP) == ret_pc:
                # The dirtying write provably restored the return
                # pointer: the guard can never fire.
                return
            fail = self._exit_lines(prefix, loop, exit_idx)
            out.append(f"if {self.val(RP)} != {ret_pc}:")
            out.extend("    " + line for line in fail)
            out.append(f"    return goto({self.val(RP)})")
            return
        ret_pc = frame["ret_pc"]
        out.append("if len(call_stack) > 1:")
        out.append("    call_stack.pop()")
        fail = self._exit_lines(prefix, loop, exit_idx)
        if self.program.check:
            out.extend(self._writeback())
            out.append(f"p = {self.val(RP)}")
            out.append("ret_check(p)")
            out.append(f"if p != {ret_pc}:")
            out.extend("    " + line for line in fail)
            out.append("    return goto(p)")
        elif self.const.get(RP) != ret_pc:
            out.append(f"if {self.val(RP)} != {ret_pc}:")
            out.extend("    " + line for line in fail)
            out.append(f"    return goto({self.val(RP)})")

    def _prescan_loop_edges(self, items: list, inline: dict):
        """Static walk over a loop body's inline markers: collect the
        canceled call sites whose edge increments can be batched per
        loop exit (recorded in ``loop_batched_sites``), and whether any
        needs the dynamic caller hoisted into ``cs`` before the loop.

        A site with an enclosing open frame has a compile-time caller
        and always batches.  A site with no open frame reads the
        physical stack top — hoistable into ``cs`` only when no
        unclosed (physical) call marker in the body shifts the stack
        top between iterations; otherwise the site falls back to a
        per-iteration dynamic increment."""
        sites: list = []
        needs_cs = False
        open_f: list = []
        self.loop_batched_sites = set()
        has_unclosed = any(
            marker[0] == "call" and not marker[1]["closed"]
            for marker in inline.values()
        )
        for idx in range(len(items)):
            marker = inline.get(idx)
            if marker is None:
                continue
            kind, frame = marker
            if kind == "call":
                if self._canceled(frame):
                    if open_f:
                        caller = repr(open_f[-1]["name"])
                    elif not has_unclosed:
                        caller = "cs"
                        needs_cs = True
                    else:
                        caller = None
                    if caller is not None:
                        self.loop_batched_sites.add(idx)
                        sites.append(
                            (f"({caller}, {frame['name']!r})", idx)
                        )
                open_f.append(frame)
            else:
                open_f.pop()
        return sites, needs_cs

    def _emit_diamond(self, out: list, op, items: list, index: int,
                      join: int, arm: list, prefix: list,
                      loop: bool) -> None:
        """Emit a BC whose taken edge rejoins at ``join`` as a
        structured if/else.  The linear ``prefix`` charges the
        fall-path region as if executed; the taken path runs the arm's
        ops and adjusts ``sk`` by the per-slot difference between the
        two arms (signed — the taken arm may charge more)."""
        fall_dx = [0] * 7
        arm_dx = [0] * 7
        # The condition reads pre-branch state; both paths start from a
        # snapshot of the constant lattice and only values they agree
        # on survive the join.
        cond = f"{self.val(op[2])} {_BC_PY[op[0]]} {self.val(op[3])}"
        entry_const = dict(self.const)
        fall_lines: list = []
        for k in range(index + 1, join):
            kop = items[k][1]
            _add_counts(prefix, _op_counts(kop))
            _add_counts(fall_dx, _op_counts(kop))
            fall_lines.extend(self._instr_lines(kop))
        fall_const = self.const
        self.const = dict(entry_const)
        taken: list = []
        for aop in arm:
            _add_counts(arm_dx, _op_counts(aop))
            if aop[0] != _B:  # threaded jumps are charged, code-free
                taken.extend(self._instr_lines(aop))
        arm_const = self.const
        self.const = {
            k: v for k, v in fall_const.items()
            if arm_const.get(k) == v
        }
        lazy = not loop and not self.program.track
        for s in self.skip_slots:
            net = fall_dx[s] - arm_dx[s]
            if net == 0:
                continue
            if s and lazy:
                # Lazy slots have no sk counters: the taken arm adjusts
                # ``ctr`` away from the fall-path total directly.
                if net > 0:
                    taken.append(f"ctr[{s}] -= {net}")
                else:
                    taken.append(f"ctr[{s}] += {-net}")
            elif net > 0:
                taken.append(f"sk{s} += {net}")
            else:
                taken.append(f"sk{s} -= {-net}")
        if taken and fall_lines:
            out.append(f"if {cond}:")
            out.extend("    " + line for line in taken)
            out.append("else:")
            out.extend("    " + line for line in fall_lines)
        elif taken:
            out.append(f"if {cond}:")
            out.extend("    " + line for line in taken)
        elif fall_lines:
            out.append(f"if not ({cond}):")
            out.extend("    " + line for line in fall_lines)
        # Both paths empty and charge-identical: the branch is a
        # run-time no-op.

    def _emit_items(self, out: list, items: list, inline: dict,
                    prefix: list, loop: bool) -> None:
        """Emit every item but the last; conditional branches inside
        the block become if-diamonds where the taken edge rejoins the
        block, inline early exits otherwise."""
        skip_until = 0
        for index, (pc, op) in enumerate(items[:-1]):
            if index < skip_until:
                continue
            _add_counts(prefix, _op_counts(op))
            code = op[0]
            diamond = self.diamonds.get(index)
            if diamond is not None:
                join, arm = diamond
                self._emit_diamond(out, op, items, index, join, arm,
                                   prefix, loop)
                skip_until = join
                continue
            threaded = inline.get(index)
            if threaded is not None:
                if threaded[0] == "call":
                    self._emit_inline_call(out, pc, op, threaded[1], loop,
                                           index)
                else:
                    self._emit_inline_ret(out, threaded[1], prefix, loop,
                                          index)
                continue
            if code == _B:
                # Jump-threaded: charged above, no code — execution
                # continues at the branch target inline.
                continue
            if _BEQ <= code <= _BGE:
                exit_lines = self._exit_lines(prefix, loop, index)
                out.append(
                    f"if {self.val(op[2])} {_BC_PY[code]} "
                    f"{self.val(op[3])}:"
                )
                out.extend("    " + line for line in exit_lines)
                out.append(f"    return {self._target(op[4])}")
            else:
                out.extend(self._instr_lines(op))

    def block_source(self, start: int) -> list:
        """Body lines (unindented) of the closure for the extended
        block at ``start``."""
        items, loop, inline = self._scan(start)
        self.targets = set()
        self.diamonds = self._find_diamonds(items, inline, loop, start)
        skip_indices = frozenset(
            k for i, (j, _arm) in self.diamonds.items()
            for k in range(i + 1, j)
        )
        # Slots whose fall-path and taken-arm charges differ need a
        # compensation counter; the budget checks use a per-path
        # ceiling (taken arms may cost more cycles than the linearly
        # charged fall path — overshoot only ever hands the run to the
        # reference-exact slow path early, never late).
        slots = set()
        extra = 0
        for i, (j, arm) in self.diamonds.items():
            fall_dx = [0] * 7
            arm_dx = [0] * 7
            for k in range(i + 1, j):
                _add_counts(fall_dx, _op_counts(items[k][1]))
            for aop in arm:
                _add_counts(arm_dx, _op_counts(aop))
            extra += max(0, arm_dx[0] - fall_dx[0])
            for s in range(7):
                if fall_dx[s] != arm_dx[s]:
                    slots.add(s)
        if self.program.uniform:
            slots.discard(1)
        self.skip_slots = tuple(sorted(slots))
        self.budget_extra = extra
        self._analyze(items, loop, skip_indices, self.diamonds)
        totals = [0] * 7
        for _pc, op in items:
            _add_counts(totals, _op_counts(op))
        self.iter_totals = totals
        self.open_frames = []
        self.loop_edge_sites = []
        self.loop_batched_sites = set()
        out: list = []
        if not loop:
            self.written_so_far = set()
            ceiling = totals[0] + self.budget_extra
            out.append(f"if ctr[0] + {ceiling} > limit:")
            out.append(f"    return slow({start})")
            for i in sorted(self.entry_loads):
                out.append(f"r{i} = regs[{i}]")
            for s in self.skip_slots:
                if s == 0 or self.program.track:
                    out.append(f"sk{s} = 0")
            prefix = [0] * 7
            self.const = {0: 0}
            self._emit_items(out, items, inline, prefix, loop=False)
            last_pc, last_op = items[-1]
            _add_counts(prefix, _op_counts(last_op))
            self._emit_terminator(out, last_pc, last_op, prefix, loop=False)
            return out

        # Loop form: the final item branches back to ``start``.  ``c0``
        # holds the cycle counter at entry, ``it`` the completed
        # iterations; every exit reconstructs the counters (and the
        # batched call edges) from per-iteration totals.  The cycle
        # budget reduces to a precomputed iteration bound ``_A`` over
        # the per-iteration cycle ceiling T (fall path plus any
        # costlier taken arms; without diamonds the bound is exact —
        # the reference check fails first at iteration
        # ``(limit - c0) // T``, and with them it can only fire early,
        # handing off to the reference-exact slow path).  A zero
        # ceiling can never cross the budget and drops the check
        # entirely.
        self.loop_edge_sites, needs_cs = self._prescan_loop_edges(
            items, inline
        )
        # Prior iterations may have written any hoisted register, so
        # every loop exit writes back the full written set.
        self.written_so_far = set(self.written)
        t0 = totals[0] + self.budget_extra
        body: list = []
        prefix = [0] * 7
        # Values learned in one iteration don't survive the backedge:
        # the lattice restarts at the body head.
        self.const = {0: 0}
        self._emit_items(body, items, inline, prefix, loop=True)
        back_pc, back_op = items[-1]
        code = back_op[0]
        if _BEQ <= code <= _BGE:
            body.append(
                f"if {self.val(back_op[2])} {_BC_PY[code]} "
                f"{self.val(back_op[3])}:"
            )
            body.append("    it += 1")
            body.append("    continue")
            body.append("break")
        else:  # unconditional backedge (B to start): no loop exit
            body.append("it += 1")
        head: list = []
        if t0:
            head.append("if it >= _A:")
            limit_exit = (
                self._commit([0] * 7, loop=True)
                + self._loop_edge_lines(0)
                + self._writeback()
            )
            head.extend("    " + line for line in limit_exit)
            head.append(f"    return slow({start})")
        for i in sorted(self.hoisted):
            out.append(f"r{i} = regs[{i}]")
        for s in self.skip_slots:
            out.append(f"sk{s} = 0")
        if needs_cs:
            out.append("cs = call_stack[-1]")
        out.append("c0 = ctr[0]")
        if t0:
            out.append(f"_A = (limit - c0) // {t0}")
        out.append("it = 0")
        out.append("while True:")
        out.extend("    " + line for line in head)
        out.extend("    " + line for line in body)
        if _BEQ <= code <= _BGE:
            # Fall-through exit: the final iteration ran in full.
            out.extend(self._commit(totals, loop=True))
            out.extend(self._loop_edge_lines(len(items)))
            out.extend(self._writeback())
            out.append(f"return {self._target(back_pc + 1)}")
        return out


# Run state every block closure may read.  A block's code object takes
# these (and its successors, as ``_b<pc>``) as free variables; a
# :class:`_Linkage` supplies the cells.
_STATE = (
    "regs", "memory", "ctr", "output", "call_stack", "call_counts",
    "call_edges", "limit", "slow", "flush", "frames", "ret_check",
    "entry_names", "dispatch", "goto", "Halted", "MachineError", "ec",
)
_BLOCK_GLOBALS = {"__builtins__": builtins.__dict__}

# Block code objects shared by every program in the process, keyed by
# the block's generated source: an identical block of another
# executable (a re-link of an unchanged program, say) reuses the code
# instead of compiling the source again.  Least recently used entries
# go first.  One entry retains 7-8 KB (the code object, ~5 KB, plus its
# source key), so the bound caps the cache near 1.5 MB.
_CODE_CACHE_SIZE = 192
_CODE_CACHE: "OrderedDict[str, CodeType]" = OrderedDict()
_CODE_CACHE_LOCK = threading.Lock()


def _block_code(source: str) -> CodeType:
    """Code object of the ``_b<pc>`` function that ``source`` (a
    ``_factory`` definition wrapping it) defines."""
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(source)
        if code is not None:
            _CODE_CACHE.move_to_end(source)
            return code
    # Compiled outside the lock: racing first runs may both compile
    # the same block, and either code object is correct.
    module = compile(source, "<repro-sim-compiled>", "exec")
    factory = next(c for c in module.co_consts if isinstance(c, CodeType))
    code = next(c for c in factory.co_consts if isinstance(c, CodeType))
    with _CODE_CACHE_LOCK:
        _CODE_CACHE[source] = code
        while len(_CODE_CACHE) > _CODE_CACHE_SIZE:
            _CODE_CACHE.popitem(last=False)
    return code


class _CompiledProgram:
    """One executable compiled for one accounting configuration.

    Code is generated per block, on first entry: :meth:`block_code`
    turns the block at a pc into a code object once, and a
    :class:`_Linkage` binds it to run state when control first reaches
    it.  Blocks no run ever enters are never generated."""

    def __init__(self, simulator, track: bool, check: bool):
        self.decoded = simulator._decoded
        self.n = len(self.decoded)
        self.entry_pc = simulator.executable.entry_pc
        self.base = simulator.executable.data_base
        self.memory_words = simulator.memory_words
        self.entry_names = simulator._entry_names
        self.volatile = simulator.volatile_registers
        self.track = track
        self.check = check
        # Uniform cost model: cycles ≡ instructions, so blocks commit
        # only ctr[0] and the instruction counter is recovered by copy.
        # Per-procedure attribution reads ctr[1] mid-run (flush), so it
        # keeps both counters live.
        self.uniform = (not track) and all(
            op[1] == 1 for op in self.decoded
        )
        self.leaders = frozenset(
            _find_leaders(self.decoded, simulator.executable)
        )
        # Lazy slot accounting (non-attributed runs): straight-block
        # exits bump one per-site execution counter instead of
        # committing every counter slot; the per-site static totals
        # (slots 1..6) recorded here are folded into ``ctr`` once, at
        # HALT or before a reference-tail handoff.
        self.exit_totals: list = []
        self._exit_index: dict = {}
        # pc -> code object of the block entered there (a leader, or a
        # suffix entered through a corrupted return pointer).
        self.codes: dict = {}
        self._compiler = _BlockCompiler(self)
        self._codegen_lock = threading.Lock()

    def matches(self, simulator) -> bool:
        """Whether this program still describes ``simulator``'s
        executable (instructions may be mutated in place between
        runs)."""
        executable = simulator.executable
        return (self.decoded == simulator._decoded
                and self.entry_names == simulator._entry_names
                and self.entry_pc == executable.entry_pc
                and self.base == executable.data_base)

    def exit_site(self, totals: tuple) -> int:
        """Index of the lazy-commit site for ``totals`` (slots 1..6),
        shared by every exit charging the same deltas."""
        idx = self._exit_index.get(totals)
        if idx is None:
            idx = self._exit_index[totals] = len(self.exit_totals)
            self.exit_totals.append(totals)
        return idx

    def block_code(self, pc: int):
        """Code object of the block entered at ``pc``, generated on the
        first request."""
        code = self.codes.get(pc)
        if code is None:
            with self._codegen_lock:
                code = self.codes.get(pc)
                if code is None:
                    code = self.codes[pc] = self._generate(pc)
        return code

    def _generate(self, pc: int):
        compiler = self._compiler
        body = _peephole(compiler.block_source(pc))
        params = _STATE + tuple(f"_b{t}" for t in sorted(compiler.targets))
        lines = [f"def _factory({', '.join(params)}):",
                 f"    def _b{pc}():"]
        lines.extend("        " + line for line in body)
        # Only the inner function's code is kept: its free variables are
        # bound to a linkage's cells, never to the factory's.
        return _block_code("\n".join(lines))

    def run(self, simulator, max_cycles: int, tracer) -> ExecutionStats:
        stats = ExecutionStats()
        regs = [0] * NUM_REGISTERS
        memory = [0] * self.memory_words
        base = self.base
        data_words = simulator.executable.data_words
        memory[base:base + len(data_words)] = data_words
        regs[SP] = self.memory_words
        output: list = []
        call_stack = ["<stub>"]
        # cycles, instructions, loads, stores, singleton_loads,
        # singleton_stores, save_restore — committed per block exit.
        ctr = [0, 0, 0, 0, 0, 0, 0]
        per_proc: dict = {}
        marks = [0, 0, 0, 0, 0]
        frames: list | None = [] if self.check else None

        def flush(name):
            _flush_proc(per_proc, name, ctr[0], ctr[1], ctr[2], ctr[3],
                        ctr[6], marks)

        def ret_check(pc):
            if frames:
                ret_pc, callee, preserved, values = frames.pop()
                if ret_pc == pc:
                    for register, value in zip(preserved, values):
                        if regs[register] != value:
                            raise ConventionViolation(
                                f"call to {callee} destroyed "
                                f"register r{register} "
                                f"({value} -> {regs[register]}) "
                                f"not in its clobber set"
                            )
                else:  # pragma: no cover - no tail calls exist
                    frames.append((ret_pc, callee, preserved, values))

        # Compiled blocks record only call_edges; call_counts is the
        # per-callee marginal of the edge counter and is reconstructed
        # once — either at HALT or before handing the run to the
        # reference tail (which maintains both incrementally).
        reconstructed = [False]

        def reconstruct_counts():
            reconstructed[0] = True
            counts = stats.call_counts
            for (_caller, callee), count in stats.call_edges.items():
                counts[callee] += count
            site_totals = self.exit_totals
            for idx, count in enumerate(ec):
                if count:
                    t = site_totals[idx]
                    for s in range(6):
                        if t[s]:
                            ctr[s + 1] += count * t[s]

        def slow(pc):
            # The cycle budget may run out inside the next block (or
            # loop iteration): finish the run with reference-exact
            # per-instruction stepping so the limit (or an earlier
            # fault) lands on the same instruction boundary.  Never
            # returns normally.
            reconstruct_counts()
            if self.uniform:
                ctr[1] = ctr[0]
            _reference_tail(self, pc, max_cycles, regs, memory, ctr,
                            output, call_stack, stats, per_proc, marks,
                            frames)

        ec: list = [0] * len(self.exit_totals)
        linkage = _Linkage(
            self, regs=regs, memory=memory, ctr=ctr, output=output,
            call_stack=call_stack, call_counts=stats.call_counts,
            call_edges=stats.call_edges, limit=max_cycles, slow=slow,
            flush=flush, frames=frames, ret_check=ret_check, ec=ec,
        )
        try:
            block = linkage.goto(self.entry_pc)
            try:
                while True:
                    block = block()
            except _Halted:
                pass
        finally:
            linkage.release()

        if not reconstructed[0]:
            reconstruct_counts()
        if self.uniform:
            # ctr[1] was elided during block execution; under a uniform
            # cost model it equals the cycle counter.  (After a
            # reference tail both are live and already equal.)
            ctr[1] = ctr[0]
        stats.cycles = ctr[0]
        stats.instructions = ctr[1]
        stats.loads = ctr[2]
        stats.stores = ctr[3]
        stats.singleton_loads = ctr[4]
        stats.singleton_stores = ctr[5]
        stats.save_restore_executed = ctr[6]
        stats.output = "".join(output)
        stats.exit_code = regs[RV]
        if self.track:
            # Final flush: instructions since the last call boundary
            # (including the HALT itself) belong to the procedure on top
            # of the stack.
            flush(call_stack[-1])
            stats.per_procedure = {
                name: ProcedureStats(*entry)
                for name, entry in sorted(per_proc.items())
            }
            if tracer.enabled:
                tracer.event(
                    "execution",
                    cycles=stats.cycles,
                    instructions=stats.instructions,
                    memory_references=stats.memory_references,
                    singleton_references=stats.singleton_references,
                    save_restore_executed=stats.save_restore_executed,
                    exit_code=stats.exit_code,
                    per_procedure={
                        name: {
                            "cycles": entry[0],
                            "instructions": entry[1],
                            "loads": entry[2],
                            "stores": entry[3],
                            "save_restore": entry[4],
                        }
                        for name, entry in sorted(per_proc.items())
                    },
                )
        return stats


class _Linkage:
    """Binds a program's block code objects to one run's state through
    closure cells it owns.

    Every block closure reads run state (``regs``, ``ctr``, ...) and
    its successors (``_b<pc>``) from these cells.  A successor's cell
    starts out holding a stub; the first transition to it binds the
    block (generating its code on the program's first entry there) and
    back-patches the cell, so from then on each transition is a plain
    cell load returning the successor's closure (direct threading)."""

    def __init__(self, program: _CompiledProgram, **state):
        self.program = program
        # pc -> bound block, for entries through computed targets
        # (returns, indirect calls).
        self.dispatch: list = [None] * program.n
        self.ec: list = state["ec"]
        state.update(entry_names=program.entry_names,
                     dispatch=self.dispatch, goto=self.goto,
                     Halted=_Halted, MachineError=MachineError)
        self.cells = {name: CellType(state[name]) for name in _STATE}

    def release(self) -> None:
        """Empty every cell, so the finished run's state (its memory
        image above all) and its blocks are freed promptly."""
        for cell in self.cells.values():
            cell.cell_contents = None

    def goto(self, pc: int):
        if not 0 <= pc < self.program.n:
            raise MachineError(f"pc out of range: {pc}")
        return self.dispatch[pc] or self.materialize(pc)

    def materialize(self, pc: int):
        """Bind the block entered at ``pc`` (generating its code on the
        program's first entry there) and back-patch its cell."""
        program = self.program
        code = program.block_code(pc)
        # New code can register lazy-commit sites: grow this run's
        # counter list in place before the block can execute.
        grow = len(program.exit_totals) - len(self.ec)
        if grow > 0:
            self.ec.extend([0] * grow)
        cells = self.cells
        closure = tuple(
            cells.get(name) or self._block_cell(name)
            for name in code.co_freevars
        )
        block = FunctionType(code, _BLOCK_GLOBALS, None, None, closure)
        self.dispatch[pc] = block
        cell = cells.get(f"_b{pc}")
        if cell is not None:
            cell.cell_contents = block
        return block

    def _block_cell(self, name: str):
        """The cell for successor ``_b<pc>``: its block if bound, else a
        stub that binds it on first entry.  (Calling the stub returns
        the block; the run loop then calls that.)"""
        pc = int(name[2:])
        cell = self.cells[name] = CellType(
            self.dispatch[pc] or partial(self.materialize, pc)
        )
        return cell


def _reference_tail(program: _CompiledProgram, pc: int, max_cycles: int,
                    regs: list, memory: list, ctr: list, output: list,
                    call_stack: list, stats: ExecutionStats,
                    per_proc: dict, marks: list,
                    check_frames: list | None) -> None:
    """Reference-exact per-instruction stepping over the shared state.

    A verbatim port of ``Simulator._run_reference``'s inner loop used
    for the end of a run, when the next block's cycle cost could cross
    ``max_cycles``.  Raises :class:`ExecutionLimitExceeded` (or an
    earlier :class:`MachineError` / :class:`ConventionViolation`) on
    exactly the boundary the reference backend would; on HALT it writes
    the counters back and raises :class:`_Halted`.
    """
    decoded = program.decoded
    code_size = program.n
    base = program.base
    memory_words = program.memory_words
    entry_names = program.entry_names
    volatile = program.volatile
    track = program.track
    call_counts = stats.call_counts
    call_edges = stats.call_edges
    (cycles, instructions, loads, stores, singleton_loads,
     singleton_stores, save_restore) = ctr

    while True:
        if not 0 <= pc < code_size:
            raise MachineError(f"pc out of range: {pc}")
        op = decoded[pc]
        code = op[0]
        cycles += op[1]
        instructions += 1
        if cycles > max_cycles:
            raise ExecutionLimitExceeded(
                f"exceeded {max_cycles} cycles"
            )
        if code == _LDW:
            address = regs[op[3]] + op[4]
            if not 0 <= address < memory_words:
                raise MachineError(f"load from bad address {address}")
            if op[2]:
                regs[op[2]] = memory[address]
            loads += 1
            if op[5]:
                singleton_loads += 1
            if op[6]:
                save_restore += 1
            pc += 1
        elif code == _STW:
            address = regs[op[3]] + op[4]
            if not base <= address < memory_words:
                raise MachineError(f"store to bad address {address}")
            memory[address] = regs[op[2]]
            stores += 1
            if op[5]:
                singleton_stores += 1
            if op[6]:
                save_restore += 1
            pc += 1
        elif code == _ADD or code == _ADDI:
            value = (regs[op[3]] + (regs[op[4]] if code == _ADD else op[4])) & 0xFFFFFFFF
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _SUB or code == _SUBI:
            value = (regs[op[3]] - (regs[op[4]] if code == _SUB else op[4])) & 0xFFFFFFFF
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _LDI:
            if op[2]:
                regs[op[2]] = op[3]
            pc += 1
        elif code == _MOV:
            if op[2]:
                regs[op[2]] = regs[op[3]]
            pc += 1
        elif _BEQ <= code <= _BGE:
            a = regs[op[2]]
            b = regs[op[3]]
            if code == _BEQ:
                taken = a == b
            elif code == _BNE:
                taken = a != b
            elif code == _BLT:
                taken = a < b
            elif code == _BLE:
                taken = a <= b
            elif code == _BGT:
                taken = a > b
            else:
                taken = a >= b
            pc = op[4] if taken else pc + 1
        elif code == _B:
            pc = op[2]
        elif _CEQ <= code <= _CGE:
            a = regs[op[3]]
            b = regs[op[4]]
            if code == _CEQ:
                value = int(a == b)
            elif code == _CNE:
                value = int(a != b)
            elif code == _CLT:
                value = int(a < b)
            elif code == _CLE:
                value = int(a <= b)
            elif code == _CGT:
                value = int(a > b)
            else:
                value = int(a >= b)
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif _MUL <= code <= _SRA or _MULI <= code <= _SRAI:
            a = regs[op[3]]
            b = regs[op[4]] if code <= _SRA else op[4]
            if code == _MUL or code == _MULI:
                value = a * b
            elif code == _DIV or code == _DIVI:
                if b == 0:
                    raise MachineError("division by zero")
                value = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    value = -value
            elif code == _REM or code == _REMI:
                if b == 0:
                    raise MachineError("remainder by zero")
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                value = a - quotient * b
            elif code == _AND or code == _ANDI:
                value = a & b
            elif code == _OR or code == _ORI:
                value = a | b
            elif code == _XOR or code == _XORI:
                value = a ^ b
            elif code == _SLL or code == _SLLI:
                value = a << (b & 31)
            else:  # arithmetic shift right
                value = a >> (b & 31)
            value &= 0xFFFFFFFF
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            if op[2]:
                regs[op[2]] = value
            pc += 1
        elif code == _BL:
            regs[RP] = pc + 1
            target = op[2]
            callee = op[3]
            call_counts[callee] += 1
            call_edges[(call_stack[-1], callee)] += 1
            if track:
                _flush_proc(per_proc, call_stack[-1], cycles,
                            instructions, loads, stores,
                            save_restore, marks)
            call_stack.append(callee)
            if check_frames is not None:
                preserved = [
                    i for i in range(NUM_REGISTERS)
                    if i != RP and i not in op[4] and i not in volatile
                ]
                check_frames.append(
                    (pc + 1, callee, preserved,
                     [regs[i] for i in preserved])
                )
            pc = target
        elif code == _BLR:
            target = regs[op[2]]
            callee = entry_names.get(target)
            if callee is None:
                raise MachineError(
                    f"indirect call to non-function address {target}"
                )
            regs[RP] = pc + 1
            call_counts[callee] += 1
            call_edges[(call_stack[-1], callee)] += 1
            if track:
                _flush_proc(per_proc, call_stack[-1], cycles,
                            instructions, loads, stores,
                            save_restore, marks)
            call_stack.append(callee)
            if check_frames is not None:
                preserved = [
                    i for i in range(NUM_REGISTERS)
                    if i != RP and i not in op[3] and i not in volatile
                ]
                check_frames.append(
                    (pc + 1, callee, preserved,
                     [regs[i] for i in preserved])
                )
            pc = target
        elif code == _RET:
            if track:
                _flush_proc(per_proc, call_stack[-1], cycles,
                            instructions, loads, stores,
                            save_restore, marks)
            if len(call_stack) > 1:
                call_stack.pop()
            pc = regs[RP]
            if check_frames is not None and check_frames:
                ret_pc, callee, preserved, values = check_frames.pop()
                if ret_pc == pc:
                    for register, value in zip(preserved, values):
                        if regs[register] != value:
                            raise ConventionViolation(
                                f"call to {callee} destroyed "
                                f"register r{register} "
                                f"({value} -> {regs[register]}) "
                                f"not in its clobber set"
                            )
                else:  # pragma: no cover - no tail calls exist
                    check_frames.append(
                        (ret_pc, callee, preserved, values)
                    )
        elif code == _PRINT:
            output.append(str(regs[op[2]]))
            output.append("\n")
            pc += 1
        elif code == _PUTC:
            output.append(chr(regs[op[2]] & 0xFF))
            pc += 1
        elif code == _HALT:
            break
        else:  # pragma: no cover
            raise MachineError(f"bad opcode {code}")

    ctr[0] = cycles
    ctr[1] = instructions
    ctr[2] = loads
    ctr[3] = stores
    ctr[4] = singleton_loads
    ctr[5] = singleton_stores
    ctr[6] = save_restore
    raise _Halted


# Compiled programs cached per executable (by identity, held weakly: a
# program keeps no reference to its executable) so repeated runs (and
# repeated Simulator constructions over the same executable, as
# ``run_executable`` does) reuse every block generated so far.
# Guarded against in-place mutation of the executable (e.g. tests that
# corrupt instructions between runs) by comparing the freshly decoded
# stream and entry points against the cached ones.
_PROGRAM_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def run_compiled(simulator, max_cycles: int) -> ExecutionStats:
    """Execute ``simulator``'s program on the threaded-code backend."""
    tracer = current_tracer()
    track = (
        tracer.enabled
        if simulator.procedure_stats is None
        else simulator.procedure_stats
    )
    check = simulator.check_conventions
    key = (bool(track), bool(check))
    program = simulator._compiled_cache.get(key)
    if program is None:
        cache_key = (
            key[0], key[1], simulator.memory_words,
            astuple(simulator.costs), simulator.volatile_registers,
        )
        per_exe = _PROGRAM_CACHE.setdefault(simulator.executable, {})
        program = per_exe.get(cache_key)
        if program is None or not program.matches(simulator):
            program = _CompiledProgram(simulator, key[0], key[1])
            per_exe[cache_key] = program
        simulator._compiled_cache[key] = program
    return program.run(simulator, max_cycles, tracer)
