"""Shared test helpers: synthetic call graphs, sample instructions and
pathologically nested programs."""

from repro.callgraph.graph import CallGraph
from repro.frontend.summary import (
    GlobalSummary,
    ModuleSummary,
    ProcedureSummary,
)
from repro.target import isa
from repro.target.registers import RP, RV, SP


def build_graph(procs, globals_=(), module="m"):
    """Build a call graph from a compact spec.

    Args:
        procs: mapping ``name -> spec`` where spec is a dict with optional
            keys ``calls`` ({callee: freq}), ``refs`` ({global: freq}),
            ``stores`` ({global: freq}), ``need`` (callee-saves estimate).
        globals_: names of (eligible) global variables.

    Returns:
        (CallGraph with normalized weights, ModuleSummary)
    """
    summary = ModuleSummary(module_name=module)
    for name, spec in procs.items():
        summary.procedures.append(
            ProcedureSummary(
                name=name,
                module=module,
                calls=dict(spec.get("calls", {})),
                global_refs=dict(spec.get("refs", {})),
                global_stores=dict(spec.get("stores", {})),
                callee_saves_needed=spec.get("need", 0),
                makes_indirect_calls=spec.get("indirect", False),
                address_taken_procs=list(spec.get("address_taken", [])),
            )
        )
    summary.globals = [
        GlobalSummary(name=g, module=module) for g in globals_
    ]
    graph = CallGraph.build([summary])
    graph.normalize_weights()
    return graph, summary


FIGURE3_PROCS = {
    "A": {"calls": {"B": 1, "C": 1}, "refs": {"g3": 10},
          "stores": {"g3": 5}},
    "B": {"calls": {"D": 1, "E": 1}, "refs": {"g1": 10, "g3": 10},
          "stores": {"g1": 5, "g3": 5}},
    "C": {"calls": {"F": 1, "G": 1}, "refs": {"g2": 10, "g3": 10},
          "stores": {"g2": 5, "g3": 5}},
    "D": {"refs": {"g1": 10}, "stores": {"g1": 5}},
    "E": {"refs": {"g1": 10, "g2": 10}, "stores": {"g1": 5, "g2": 5}},
    "F": {"calls": {"H": 1}, "refs": {"g2": 10}, "stores": {"g2": 5}},
    "G": {"calls": {"H": 1}, "refs": {"g2": 10}, "stores": {"g2": 5}},
    "H": {},
}

FIGURE3_GLOBALS = ("g1", "g2", "g3")


def figure3_graph():
    """The paper's Figure 3 example call graph."""
    return build_graph(FIGURE3_PROCS, FIGURE3_GLOBALS)


def one_instruction_per_class() -> list:
    """One instance of every PRISM instruction class, in linked form
    (physical registers, resolved targets and symbols)."""
    data = isa.LDA(6, "counter")
    data.resolved = 1030
    code = isa.LDA(7, "main", is_function=True)
    code.resolved = 2
    call = isa.BL("f", [4, 5], [RV, RP])
    call.resolved = 9
    instructions = [
        isa.LDI(5, -7), data, code, isa.MOV(8, 9),
        isa.ALU("+", 10, 11, 12), isa.ALUI("<<", 13, 14, 3),
        isa.CMP("<", 15, 16, 17),
        isa.LDW(18, SP, 4, singleton=True),
        isa.STW(19, SP, 5, save_restore=True),
        isa.B(42), isa.BC("!=", 20, 21, 40), call,
        isa.BLR(22, [4], [RV, RP]), isa.RET([RV]), isa.SYS("print", 4),
        isa.HALT(),
    ]
    assert {type(i) for i in instructions} == set(
        isa.MInstr.__subclasses__()
    ), "a new instruction class needs a sample here"
    return instructions


def instruction_with_unset_slot() -> isa.LDA:
    """An ``LDA`` whose ``resolved`` slot was never assigned."""
    instruction = isa.LDA.__new__(isa.LDA)
    instruction.rd = 3
    instruction.symbol = "table"
    instruction.is_function = False
    return instruction


def deeply_nested_source(shape: str, depth: int) -> str:
    """A module whose third line nests ``depth`` deep: ``"parens"``
    wraps a literal in parentheses, ``"ifs"`` stacks ``if`` statements
    without braces."""
    if shape == "parens":
        line = "  x = " + "(" * depth + "1" + ")" * depth + ";"
    else:
        line = "  " + "if (x) " * depth + "x = 2;"
    return "int main() {\n  int x = 1;\n" + line + "\n  return x;\n}\n"
