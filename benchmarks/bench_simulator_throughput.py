"""Simulator backend throughput: compiled vs reference.

The threaded-code backend (``docs/SIMULATOR.md``) exists to make
re-simulating the full workload matrix cheap; its contract is
bit-identical statistics at >=5x the reference interpreter's simulated
instructions/sec on the two workloads that bracket the instruction mix:
``othello`` (branchy search) and ``dhrystone`` (global-heavy straight
line).

Methodology: both backends run warm (the compiled program cache is
primed before timing) and interleaved in the same process, best of
``ROUNDS`` — the ratio of same-process bests is stable even when the
host is noisy, where absolute rates are not.  Results land in the
``simulator_throughput`` section of ``BENCH_results.json`` (both the
``benchmarks/`` report and the tracked repo-root snapshot).

The warm rows never see code generation: the compiled backend
generates each block the first time control reaches it, and caches it
with the executable.  The ``cold`` rows show that start-up cost: the
process time of one ``run_executable`` on a freshly linked executable
of every Table 3 workload (baseline and config C builds), split into
block code generation and execution, next to how many blocks were
generated and how many block leaders the program has.  They start from
an empty process-wide block-code cache, so blocks the warm rows already
compiled are compiled again.
"""

import time
from collections import OrderedDict

from repro import (
    AnalyzerOptions,
    ProgramDatabase,
    compile_with_database,
    run_executable,
    run_phase1,
)
from repro.analyzer.driver import analyze_program
from repro.machine import compiled
from repro.machine.simulator import Simulator
from repro.workloads import all_workloads, get_workload

from conftest import _SIM_THROUGHPUT, print_table

WORKLOADS = ("othello", "dhrystone")
ROUNDS = 9
MEMORY_WORDS = 1 << 17
TARGET_SPEEDUP = 5.0


def _measure(name: str) -> dict:
    workload = get_workload(name)
    phase1 = run_phase1(workload.sources)
    executable = compile_with_database(phase1, ProgramDatabase())
    compiled = Simulator(
        executable, backend="compiled", memory_words=MEMORY_WORDS
    )
    reference = Simulator(
        executable, backend="reference", memory_words=MEMORY_WORDS
    )
    # Warm-up: primes the closure cache and checks the backends agree
    # on this executable before any timing.
    warm = compiled.run(workload.max_cycles)
    ref_warm = reference.run(workload.max_cycles)
    assert warm.instructions == ref_warm.instructions
    assert warm.output == ref_warm.output
    instructions = warm.instructions

    best = {"compiled": 0.0, "reference": 0.0}
    for _ in range(ROUNDS):
        for backend, simulator in (
            ("compiled", compiled), ("reference", reference)
        ):
            start = time.perf_counter()
            simulator.run(workload.max_cycles)
            elapsed = time.perf_counter() - start
            best[backend] = max(best[backend], instructions / elapsed)
    return {
        "instructions": instructions,
        "compiled_instructions_per_second": best["compiled"],
        "reference_instructions_per_second": best["reference"],
        "speedup": best["compiled"] / best["reference"],
    }


def test_compiled_backend_throughput():
    rows = []
    for name in WORKLOADS:
        result = _measure(name)
        _SIM_THROUGHPUT[name] = result
        rows.append((
            name,
            result["instructions"],
            f"{result['compiled_instructions_per_second'] / 1e6:.2f}",
            f"{result['reference_instructions_per_second'] / 1e6:.2f}",
            f"{result['speedup']:.2f}x",
        ))
    _SIM_THROUGHPUT["target_speedup"] = TARGET_SPEEDUP
    print_table(
        "Simulator throughput (compiled vs reference backend)",
        ["workload", "instructions", "compiled M/s", "reference M/s",
         "speedup"],
        rows,
    )
    for name in WORKLOADS:
        assert _SIM_THROUGHPUT[name]["speedup"] >= TARGET_SPEEDUP, (
            name, _SIM_THROUGHPUT[name]
        )


COLD_CONFIGS = ("baseline", "C")


def _cold_run(executable, max_cycles: int, codegen: list) -> dict:
    codegen[0] = 0.0
    start = time.process_time()
    run_executable(executable, max_cycles=max_cycles)
    total = time.process_time() - start
    (program,) = compiled._PROGRAM_CACHE[executable].values()
    return {
        "codegen_s": codegen[0],
        "execution_s": total - codegen[0],
        "blocks_generated": len(program.codes),
        "leaders": len(program.leaders),
    }


def test_compiled_backend_cold_first_run(monkeypatch):
    # Process seconds spent generating block code, accumulated by a
    # timing wrapper around the compiled backend's block generator.
    codegen = [0.0]
    generate = compiled._CompiledProgram._generate

    def timed_generate(self, pc):
        start = time.process_time()
        try:
            return generate(self, pc)
        finally:
            codegen[0] += time.process_time() - start

    monkeypatch.setattr(compiled._CompiledProgram, "_generate",
                        timed_generate)
    monkeypatch.setattr(compiled, "_CODE_CACHE", OrderedDict())
    cold: dict = {}
    rows = []
    for name, workload in sorted(all_workloads().items()):
        phase1 = run_phase1(workload.sources)
        summaries = [result.summary for result in phase1]
        for config in COLD_CONFIGS:
            database = (
                ProgramDatabase() if config == "baseline"
                else analyze_program(summaries, AnalyzerOptions.config(config))
            )
            executable = compile_with_database(phase1, database)
            row = _cold_run(executable, workload.max_cycles, codegen)
            assert row["blocks_generated"] > 0, (name, config)
            cold.setdefault(name, {})[config] = row
            rows.append((
                name, config,
                f"{row['codegen_s'] * 1e3:.1f}",
                f"{row['execution_s'] * 1e3:.1f}",
                f"{row['blocks_generated']}/{row['leaders']}",
            ))
    cold["total"] = {
        key: sum(cold[name][config][key]
                 for name in cold for config in COLD_CONFIGS)
        for key in ("codegen_s", "execution_s")
    }
    _SIM_THROUGHPUT["cold"] = cold
    rows.append((
        "total", "",
        f"{cold['total']['codegen_s'] * 1e3:.1f}",
        f"{cold['total']['execution_s'] * 1e3:.1f}",
        "",
    ))
    print_table(
        "Simulator cold first run (compiled backend, process time)",
        ["workload", "build", "codegen ms", "execution ms",
         "blocks/leaders"],
        rows,
    )
