"""The executable serializer against the per-instruction MRO walk it
replaced.

``serialize_executable`` renders instructions from a field layout
computed once per class; the oracle below is the original renderer,
which walked each instruction's MRO with ``hasattr``/``getattr``.  The
bytes (and so every fingerprint) must be identical.
"""

import hashlib
import json

import pytest

from repro import AnalyzerOptions, compile_program
from repro.linker.link import (
    Executable,
    FunctionRange,
    executable_fingerprint,
    serialize_executable,
)
from repro.workloads import all_workloads
from tests.support import (
    instruction_with_unset_slot,
    one_instruction_per_class,
)

WORKLOADS = all_workloads()


def _oracle_fields(instruction) -> dict:
    fields = {}
    for klass in type(instruction).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(instruction, slot):
                fields[slot] = getattr(instruction, slot)
    return fields


def oracle_serialize(executable: Executable) -> bytes:
    instructions = [
        [type(instruction).__name__, sorted(
            (name, value if not isinstance(value, list) else list(value))
            for name, value in _oracle_fields(instruction).items()
        )]
        for instruction in executable.instructions
    ]
    payload = {
        "entry_pc": executable.entry_pc,
        "data_base": executable.data_base,
        "instructions": instructions,
        "data_words": list(executable.data_words),
        "function_entries": dict(executable.function_entries),
        "global_addresses": dict(executable.global_addresses),
        "function_ranges": [
            [rng.name, rng.start, rng.end, rng.source_module]
            for rng in executable.function_ranges
        ],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def test_every_instruction_class_serializes_like_the_oracle():
    executable = Executable(
        instructions=one_instruction_per_class()
        + [instruction_with_unset_slot()],
        data_words=[0, 5, -1],
        function_entries={"main": 2},
        global_addresses={"counter": 1030},
        function_ranges=[FunctionRange("main", 2, 17, "m")],
    )
    image = serialize_executable(executable)
    assert image == oracle_serialize(executable)
    rendered = json.loads(image)["instructions"]
    assert len(rendered) == len(executable.instructions)
    # The unset slot is left out, not rendered as a default.
    assert rendered[-1] == [
        "LDA", [["is_function", False], ["rd", 3], ["symbol", "table"]]
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_linked_workload_serializes_like_the_oracle(name):
    executable = compile_program(
        WORKLOADS[name].sources,
        analyzer_options=AnalyzerOptions.config("C"),
    ).executable
    oracle = oracle_serialize(executable)
    assert serialize_executable(executable) == oracle
    assert executable_fingerprint(executable) == (
        hashlib.sha256(oracle).hexdigest()
    )
